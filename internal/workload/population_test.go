package workload

import (
	"math"
	"math/rand"
	"testing"

	"filemig/internal/stats"
	"filemig/internal/units"
)

func testPopulation(n int, seed int64) *Population {
	return NewPopulation(n, 200, rand.New(rand.NewSource(seed)))
}

func TestClassWeightsSumToOne(t *testing.T) {
	sum := 0.0
	for _, w := range classWeights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("class weights sum to %v", sum)
	}
}

func TestClassMarginalsMatchFigure8(t *testing.T) {
	p := testPopulation(60000, 1)
	var r0, r1, w0, w1, w1r0 int
	for i := range p.Files {
		c := p.Files[i].Class
		switch c.reads() {
		case 0:
			r0++
		case 1:
			r1++
		}
		switch c.writes() {
		case 0:
			w0++
		case 1:
			w1++
		}
		if c == W1R0 {
			w1r0++
		}
	}
	n := float64(len(p.Files))
	checks := []struct {
		name string
		got  float64
		want float64
		tol  float64
	}{
		{"files never read", float64(r0) / n, 0.50, 0.02}, // §5.3
		{"files read exactly once", float64(r1) / n, 0.25, 0.02},
		{"files never written", float64(w0) / n, 0.21, 0.02},
		{"files written exactly once", float64(w1) / n, 0.65, 0.02},
		{"write-once-read-never", float64(w1r0) / n, 0.44, 0.02},
	}
	for _, c := range checks {
		if math.Abs(c.got-c.want) > c.tol {
			t.Errorf("%s = %.3f, want %.2f±%.2f", c.name, c.got, c.want, c.tol)
		}
	}
}

func TestExactlyOnceIs57Percent(t *testing.T) {
	p := testPopulation(60000, 2)
	once := 0
	for i := range p.Files {
		c := p.Files[i].Class
		if c == W1R0 || c == W0R1 {
			once++
		}
	}
	frac := float64(once) / float64(len(p.Files))
	if math.Abs(frac-0.57) > 0.02 {
		t.Errorf("exactly-one-access fraction = %.3f, want 0.57 (§5.3)", frac)
	}
}

func TestPreExistsMatchesZeroWrites(t *testing.T) {
	p := testPopulation(5000, 3)
	for i := range p.Files {
		f := &p.Files[i]
		if f.PreExists != (f.Class.writes() == 0) {
			t.Fatalf("file %d: PreExists=%v but class %v has %d writes",
				i, f.PreExists, f.Class, f.Class.writes())
		}
	}
}

func TestSizeDistributionMatchesFigure11(t *testing.T) {
	p := testPopulation(60000, 4)
	var files stats.CDF
	var data stats.WeightedCDF
	for i := range p.Files {
		s := float64(p.Files[i].Size)
		files.Add(s)
		data.Add(s, s)
	}
	// Table 4: average file size ~25 MB. Allow 19-31.
	mean := units.Bytes(files.Mean())
	if mean < units.Bytes(19*units.MB) || mean > units.Bytes(31*units.MB) {
		t.Errorf("mean file size = %v, want ~25 MB", mean)
	}
	// Figure 11: "about half of the files are under 3 MB".
	under3 := files.P(3e6)
	if under3 < 0.40 || under3 > 0.62 {
		t.Errorf("fraction under 3 MB = %.3f, want ~0.5", under3)
	}
	// "...these files contain 2% of the data".
	dataUnder3 := data.P(3e6)
	if dataUnder3 > 0.06 {
		t.Errorf("data fraction in <3 MB files = %.3f, want ~0.02", dataUnder3)
	}
	// 200 MB cap is absolute (files cannot span tapes).
	if files.Quantile(1) > MSSFileCap {
		t.Errorf("max size %v exceeds the 200 MB cap", units.Bytes(files.Quantile(1)))
	}
	if files.Quantile(0) <= 0 {
		t.Errorf("min size %v not positive", files.Quantile(0))
	}
}

func TestModelChunkBump(t *testing.T) {
	p := testPopulation(60000, 5)
	chunks := 0
	for i := range p.Files {
		if p.Files[i].Kind == KindModelChunk {
			chunks++
			s := float64(p.Files[i].Size)
			if s < 6e6 || s > 10e6 {
				t.Fatalf("model chunk size %v outside the 8 MB bump", units.Bytes(s))
			}
		}
	}
	frac := float64(chunks) / float64(len(p.Files))
	if frac < 0.03 || frac > 0.09 {
		t.Errorf("model-chunk fraction = %.3f, want ~%.2f", frac, modelChunkFraction)
	}
}

func TestPreExistingFilesAreSmaller(t *testing.T) {
	p := testPopulation(60000, 6)
	var pre, post stats.Moments
	for i := range p.Files {
		if p.Files[i].Kind != KindGeneral {
			continue
		}
		if p.Files[i].PreExists {
			pre.Add(float64(p.Files[i].Size))
		} else {
			post.Add(float64(p.Files[i].Size))
		}
	}
	if pre.Mean() >= post.Mean() {
		t.Errorf("pre-existing mean %v >= in-trace mean %v; older files should be smaller",
			units.Bytes(pre.Mean()), units.Bytes(post.Mean()))
	}
}

func TestOwnershipSkewed(t *testing.T) {
	p := testPopulation(30000, 7)
	counts := map[uint32]int{}
	for i := range p.Files {
		o := p.Files[i].Owner
		if o < 1 || o > 200 {
			t.Fatalf("owner %d out of range [1,200]", o)
		}
		counts[o]++
	}
	// Zipf ownership: the busiest user should own far more than the mean.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	mean := float64(len(p.Files)) / float64(len(counts))
	if float64(max) < 3*mean {
		t.Errorf("heaviest user owns %d files, mean %v — want heavy skew", max, mean)
	}
}

func TestPopulationDeterminism(t *testing.T) {
	a, b := testPopulation(2000, 42), testPopulation(2000, 42)
	for i := range a.Files {
		if a.Files[i] != b.Files[i] {
			t.Fatalf("file %d differs across identical seeds", i)
		}
	}
	c := testPopulation(2000, 43)
	same := true
	for i := range a.Files {
		if a.Files[i].Size != c.Files[i].Size {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical populations")
	}
}

func TestTotalAndMean(t *testing.T) {
	p := testPopulation(1000, 8)
	if p.TotalBytes() <= 0 {
		t.Error("total bytes should be positive")
	}
	if got := p.MeanSize(); got != p.TotalBytes()/1000 {
		t.Errorf("MeanSize = %v", got)
	}
	empty := &Population{}
	if empty.MeanSize() != 0 {
		t.Error("empty population mean should be 0")
	}
}
