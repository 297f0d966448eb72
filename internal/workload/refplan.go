package workload

import (
	"math/rand"
	"time"

	"filemig/internal/stats"
	"filemig/internal/trace"
)

// This file turns a file's reference class into a concrete plan: a list of
// logical (deduplicated) accesses with operations and times, reproducing
// Figure 8's reference-count distribution and Figure 9's interreference
// intervals (70% under a day, a tail reaching beyond a year).

// multiReadCount draws the read count for a "read several times" class:
// two plus a heavy Pareto tail capped at the figure's 250-reference x-axis
// limit. Rereads dominate rewrites at NCAR (Table 3's 2:1 read/write
// ratio), so this tail is markedly heavier than the write tail below;
// jointly they are calibrated so ~5% of all files collect more than ten
// references (Figure 8).
func multiReadCount(rng *rand.Rand) int {
	tail := stats.Pareto{Xm: 1.2, Alpha: 1.15}.Sample(rng)
	n := 2 + int(tail)
	if n > 250 {
		n = 250
	}
	return n
}

// multiWriteCount draws the write count for a "rewritten" class: files are
// rewritten a handful of times (checkpoints, corrected runs), far less
// often than they are reread.
func multiWriteCount(rng *rand.Rand) int {
	tail := stats.Pareto{Xm: 0.3, Alpha: 1.5}.Sample(rng)
	n := 2 + int(tail)
	if n > 100 {
		n = 100
	}
	return n
}

// interRefGap draws a same-operation interreference interval: at least
// the 8-hour dedup window (or the pair would collapse), usually next
// morning, sometimes days-to-weeks, with a uniform long tail out to 500
// days so some rereferences arrive more than a year later (Figure 9).
func interRefGap(rng *rand.Rand) time.Duration {
	u := rng.Float64()
	var hours float64
	switch {
	case u < 0.78:
		hours = 11 * lognorm(0.45, rng)
		if hours < 8.5 {
			hours = 8.5
		}
	case u < 0.93:
		hours = 24 * 8 * lognorm(1.1, rng)
		if hours < 24 {
			hours = 24
		}
	default:
		hours = 24 * (45 + rng.Float64()*455)
	}
	return time.Duration(hours * float64(time.Hour))
}

// crossOpGap separates consecutive accesses with *different* operations —
// typically the overnight batch write followed by the morning read. The
// dedup rule only collapses same-op pairs, so these can be much shorter;
// the 4.5-hour floor keeps any same-op pair bridged by one crossover at
// least 9 hours apart, preserving the dedup invariant. These short pairs
// are what puts ~70% of Figure 9's intervals under one day.
func crossOpGap(rng *rand.Rand) time.Duration {
	hours := 4.5 + 2.0*lognorm(0.8, rng)
	return time.Duration(hours * float64(time.Hour))
}

func lognorm(sigma float64, rng *rand.Rand) float64 {
	return stats.Lognormal{Median: 1, Sigma: sigma}.Sample(rng)
}

// planOp is one logical access in a file's plan.
type planOp struct {
	at time.Time
	op trace.Op
}

// planScratch is the generator's reusable storage for one file's plan:
// buildPlan fills it, and the plan it returns is read before the next
// build overwrites it, so a whole trace plans in two slices that grow to
// the longest file's plan and no further.
type planScratch struct {
	ops  []trace.Op
	plan []planOp
}

// buildPlan produces the file's logical access sequence within the trace
// window, in s's storage. Files created during the trace open with their
// first write; pre-existing files start with a read. Accesses whose
// interreference gaps run past the end of the trace are dropped —
// exactly the truncation a real fixed-window trace imposes.
func (s *planScratch) buildPlan(f *File, birth time.Time, end time.Time, rng *rand.Rand) []planOp {
	nr, nw := f.Class.reads(), f.Class.writes()
	if nr < 0 {
		nr = multiReadCount(rng)
	}
	if nw < 0 {
		nw = multiWriteCount(rng)
	}
	total := nr + nw
	if total == 0 {
		return nil
	}
	// Op sequence: a created file's first access is its creating write;
	// the remaining reads and rewrites interleave uniformly.
	ops := s.ops[:0]
	if nw > 0 {
		ops = append(ops, trace.Write)
		nw--
	} else {
		ops = append(ops, trace.Read)
		nr--
	}
	for i := 0; i < nr; i++ {
		ops = append(ops, trace.Read)
	}
	for i := 0; i < nw; i++ {
		ops = append(ops, trace.Write)
	}
	rest := ops[1:]
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	s.ops = ops

	plan := s.plan[:0]
	t := birth
	for i, op := range ops {
		if !t.Before(end) {
			break
		}
		plan = append(plan, planOp{at: t, op: op})
		if i+1 < len(ops) && ops[i+1] != op {
			t = t.Add(crossOpGap(rng))
		} else {
			t = t.Add(interRefGap(rng))
		}
	}
	s.plan = plan
	return plan
}
