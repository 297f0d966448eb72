package stats

import (
	"math"
	"math/rand"
	"testing"
)

func TestConstant(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	c := Constant{V: 8e6}
	for i := 0; i < 5; i++ {
		if c.Sample(r) != 8e6 {
			t.Fatal("Constant should always return V")
		}
	}
}

func TestLognormalMedianAndMean(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	ln := Lognormal{Median: 3, Sigma: 2.0}
	var c CDF
	for i := 0; i < 50000; i++ {
		c.Add(ln.Sample(r))
	}
	med := c.Median()
	if math.Abs(med-3)/3 > 0.1 {
		t.Errorf("lognormal median = %v, want ~3", med)
	}
	analytic := ln.Mean()
	want := 3 * math.Exp(2)
	if math.Abs(analytic-want) > 1e-9 {
		t.Errorf("analytic mean = %v, want %v", analytic, want)
	}
	if math.Abs(c.Mean()-analytic)/analytic > 0.25 {
		t.Errorf("sample mean %v far from analytic %v", c.Mean(), analytic)
	}
}

func TestParetoTail(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	p := Pareto{Xm: 1, Alpha: 1.2}
	var c CDF
	for i := 0; i < 20000; i++ {
		v := p.Sample(r)
		if v < 1 {
			t.Fatalf("pareto sample %v < xm", v)
		}
		c.Add(v)
	}
	// P(X > 10) = 10^-1.2 ≈ 0.063.
	got := 1 - c.P(10)
	if math.Abs(got-math.Pow(10, -1.2)) > 0.02 {
		t.Errorf("P(X>10) = %v, want ~%v", got, math.Pow(10, -1.2))
	}
}

func TestBounded(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	b := Bounded{Inner: Lognormal{Median: 50e6, Sigma: 2}, Lo: 1, Hi: 200e6}
	for i := 0; i < 10000; i++ {
		v := b.Sample(r)
		if v < 1 || v > 200e6 {
			t.Fatalf("bounded sample %v outside [1, 200e6]", v)
		}
	}
}

func TestMixtureWeights(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := NewMixture(
		MixtureComponent{Weight: 0.75, Sampler: Constant{V: 1}},
		MixtureComponent{Weight: 0.25, Sampler: Constant{V: 2}},
	)
	n1 := 0
	const n = 40000
	for i := 0; i < n; i++ {
		if m.Sample(r) == 1 {
			n1++
		}
	}
	frac := float64(n1) / n
	if math.Abs(frac-0.75) > 0.02 {
		t.Errorf("mixture selected component 1 %v of draws, want ~0.75", frac)
	}
}

func TestMixturePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-weight mixture should panic")
		}
	}()
	NewMixture(MixtureComponent{Weight: 0, Sampler: Constant{}})
}

func TestMixtureNegativeWeightPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative-weight mixture should panic")
		}
	}()
	NewMixture(MixtureComponent{Weight: -1, Sampler: Constant{}})
}

func TestDiscrete(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	d := NewDiscrete(44, 13, 43) // rough file-class weights from §5.3
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[d.Sample(r)]++
	}
	want := []float64{0.44, 0.13, 0.43}
	for i, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-want[i]) > 0.01 {
			t.Errorf("class %d frequency %v, want ~%v", i, frac, want[i])
		}
	}
}

func TestDiscretePanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewDiscrete() },
		func() { NewDiscrete(0, 0) },
		func() { NewDiscrete(1, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestGeometricMean(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	g := Geometric{P: 0.2}
	var m Moments
	for i := 0; i < 50000; i++ {
		v := g.Sample(r)
		if v < 0 || v != math.Floor(v) {
			t.Fatalf("geometric sample %v not a non-negative integer", v)
		}
		m.Add(v)
	}
	// mean (1-p)/p = 4.
	if math.Abs(m.Mean()-4) > 0.15 {
		t.Errorf("geometric mean = %v, want ~4", m.Mean())
	}
}

func TestGeometricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for P=0")
		}
	}()
	Geometric{P: 0}.Sample(rand.New(rand.NewSource(1)))
}

func TestZipfRange(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	z := NewZipf(r, 1.5, 100)
	counts := make(map[uint64]int)
	for i := 0; i < 20000; i++ {
		v := z.Next()
		if v < 1 || v > 100 {
			t.Fatalf("zipf rank %d out of [1,100]", v)
		}
		counts[v]++
	}
	if counts[1] <= counts[50] {
		t.Errorf("zipf rank 1 (%d) should dominate rank 50 (%d)", counts[1], counts[50])
	}
}

func TestSamplersAreDeterministic(t *testing.T) {
	mk := func() []float64 {
		r := rand.New(rand.NewSource(123))
		m := NewMixture(
			MixtureComponent{Weight: 1, Sampler: Lognormal{Median: 3, Sigma: 1}},
			MixtureComponent{Weight: 1, Sampler: Pareto{Xm: 1, Alpha: 2}},
		)
		out := make([]float64, 50)
		for i := range out {
			out[i] = m.Sample(r)
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sample %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}
