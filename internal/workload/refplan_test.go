package workload

import (
	"math/rand"
	"testing"
	"time"

	"filemig/internal/stats"
	"filemig/internal/trace"
)

func TestMultiReadCountRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m stats.Moments
	over10 := 0
	for i := 0; i < 50000; i++ {
		n := multiReadCount(rng)
		if n < 2 || n > 250 {
			t.Fatalf("multiReadCount = %d, want [2,250]", n)
		}
		m.Add(float64(n))
		if n > 10 {
			over10++
		}
	}
	// Calibrated so the overall >10-reference fraction lands near 5%:
	// ~25% of files draw from this tail, so P(>10 | tail) should be
	// roughly 0.05-0.25.
	frac := float64(over10) / 50000
	if frac < 0.05 || frac > 0.25 {
		t.Errorf("P(multi reads > 10) = %.3f, want 0.05-0.25", frac)
	}
	if m.Mean() < 4 || m.Mean() > 10 {
		t.Errorf("multi read mean = %v, want 4-10", m.Mean())
	}
}

func TestMultiWriteCountRange(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var m stats.Moments
	for i := 0; i < 50000; i++ {
		n := multiWriteCount(rng)
		if n < 2 || n > 100 {
			t.Fatalf("multiWriteCount = %d, want [2,100]", n)
		}
		m.Add(float64(n))
	}
	// Rewrites are modest: mean 2.5-4, well below the reread tail.
	if m.Mean() < 2.2 || m.Mean() > 4.5 {
		t.Errorf("multi write mean = %v, want 2.2-4.5", m.Mean())
	}
}

func TestInterRefGapDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var c stats.CDF
	for i := 0; i < 50000; i++ {
		g := interRefGap(rng)
		if g < 8*time.Hour {
			t.Fatalf("gap %v below the 8-hour dedup window", g)
		}
		c.Add(g.Hours())
	}
	// Figure 9: "70% of all intervals were less than 1 day".
	day := c.P(24)
	if day < 0.58 || day > 0.78 {
		t.Errorf("P(gap < 1 day) = %.3f, want ~0.70", day)
	}
	// A visible tail past one year ("some files ... referenced more than a
	// year after the previous reference").
	year := 1 - c.P(365*24)
	if year <= 0 {
		t.Error("no gaps beyond one year")
	}
	if year > 0.05 {
		t.Errorf("gap tail past a year = %.3f, too fat", year)
	}
}

func TestBuildPlanFirstOpIsWriteForCreatedFiles(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s planScratch
	end := trace.Epoch.Add(731 * 24 * time.Hour)
	for _, class := range []RefClass{W1R0, W1R1, W1Rn, WnR0, WnR1, WnRn} {
		f := &File{Class: class}
		plan := s.buildPlan(f, trace.Epoch.Add(time.Hour), end, rng)
		if len(plan) == 0 {
			t.Fatalf("class %v produced empty plan", class)
		}
		if plan[0].op != trace.Write {
			t.Errorf("class %v first op = %v, want write (creation)", class, plan[0].op)
		}
	}
	for _, class := range []RefClass{W0R1, W0Rn} {
		f := &File{Class: class, PreExists: true}
		plan := s.buildPlan(f, trace.Epoch.Add(time.Hour), end, rng)
		if len(plan) == 0 {
			t.Fatalf("class %v produced empty plan", class)
		}
		if plan[0].op != trace.Read {
			t.Errorf("class %v first op = %v, want read", class, plan[0].op)
		}
	}
}

func TestBuildPlanCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var s planScratch
	end := trace.Epoch.Add(100 * 365 * 24 * time.Hour) // effectively no truncation
	f := &File{Class: W1R1}
	plan := s.buildPlan(f, trace.Epoch, end, rng)
	if len(plan) != 2 {
		t.Fatalf("W1R1 plan length = %d, want 2", len(plan))
	}
	reads, writes := 0, 0
	for _, p := range plan {
		if p.op == trace.Read {
			reads++
		} else {
			writes++
		}
	}
	if reads != 1 || writes != 1 {
		t.Errorf("W1R1 plan = %d reads, %d writes", reads, writes)
	}
}

func TestBuildPlanTimesAscendAndRespectWindow(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var s planScratch
	end := trace.Epoch.Add(731 * 24 * time.Hour)
	for i := 0; i < 500; i++ {
		f := &File{Class: WnRn}
		plan := s.buildPlan(f, trace.Epoch.Add(time.Duration(i)*24*time.Hour), end, rng)
		for j := range plan {
			if plan[j].at.After(end) || plan[j].at.Equal(end) {
				t.Fatalf("plan op %d at %v beyond trace end", j, plan[j].at)
			}
			if j > 0 && !plan[j].at.After(plan[j-1].at) {
				t.Fatalf("plan times not strictly ascending")
			}
		}
		if !dedupPlanInvariant(plan) {
			t.Fatalf("plan violates the 8-hour dedup invariant")
		}
	}
}

func TestBuildPlanTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	var s planScratch
	// Birth one hour before end: multi-access plans must truncate to few.
	end := trace.Epoch.Add(24 * time.Hour)
	f := &File{Class: WnRn}
	plan := s.buildPlan(f, end.Add(-time.Hour), end, rng)
	if len(plan) != 1 {
		t.Errorf("plan near trace end has %d ops, want 1 (rest truncated)", len(plan))
	}
	// Birth after end: nothing.
	plan = s.buildPlan(f, end.Add(time.Hour), end, rng)
	if len(plan) != 0 {
		t.Errorf("plan born after end has %d ops, want 0", len(plan))
	}
}
