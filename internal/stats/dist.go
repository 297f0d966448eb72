package stats

import (
	"math"
	"math/rand"
	"sort"
)

// Sampler draws random variates. All workload distributions implement it so
// the generator can be configured with arbitrary mixtures.
type Sampler interface {
	Sample(r *rand.Rand) float64
}

// Lognormal draws from a lognormal distribution parameterised by the median
// (exp mu) and sigma (shape). Most of the paper's size and interval
// distributions are heavy-tailed and well modelled by lognormals.
type Lognormal struct {
	Median float64 // exp(mu)
	Sigma  float64
}

// Sample implements Sampler.
func (l Lognormal) Sample(r *rand.Rand) float64 {
	return l.Median * math.Exp(l.Sigma*r.NormFloat64())
}

// Pareto draws from a Pareto distribution with scale Xm and shape Alpha.
// Used for the directory-population tail (5 % of directories hold 50 % of
// files, Figure 12).
type Pareto struct {
	Xm    float64
	Alpha float64
}

// Sample implements Sampler.
func (p Pareto) Sample(r *rand.Rand) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return p.Xm / math.Pow(u, 1/p.Alpha)
}

// Bounded clamps an inner sampler to [Lo, Hi]; the MSS's 200 MB file cap is
// a Bounded{...} around the raw size distribution.
type Bounded struct {
	Inner  Sampler
	Lo, Hi float64
}

// Sample implements Sampler.
func (b Bounded) Sample(r *rand.Rand) float64 {
	v := b.Inner.Sample(r)
	if v < b.Lo {
		return b.Lo
	}
	if v > b.Hi {
		return b.Hi
	}
	return v
}

// MixtureComponent couples a sampler with a non-negative selection weight.
type MixtureComponent struct {
	Weight  float64
	Sampler Sampler
}

// Mixture selects one component per draw with probability proportional to
// its weight.
type Mixture struct {
	components []MixtureComponent
	cum        []float64
	total      float64
}

// NewMixture builds a mixture from components; weights need not sum to 1.
func NewMixture(components ...MixtureComponent) *Mixture {
	m := &Mixture{components: components}
	for _, c := range components {
		if c.Weight < 0 {
			panic("stats: negative mixture weight")
		}
		m.total += c.Weight
		m.cum = append(m.cum, m.total)
	}
	if m.total <= 0 {
		panic("stats: mixture has zero total weight")
	}
	return m
}

// Sample implements Sampler.
func (m *Mixture) Sample(r *rand.Rand) float64 {
	u := r.Float64() * m.total
	i := sort.SearchFloat64s(m.cum, u)
	if i >= len(m.components) {
		i = len(m.components) - 1
	}
	return m.components[i].Sampler.Sample(r)
}

// Zipf draws integers in [1, N] with probability proportional to
// 1/rank^S. It backs the per-user and per-directory popularity skew.
type Zipf struct {
	z *rand.Zipf
}

// NewZipf constructs a Zipf sampler; s must be > 1 per math/rand.
func NewZipf(r *rand.Rand, s float64, n uint64) *Zipf {
	return &Zipf{z: rand.NewZipf(r, s, 1, n-1)}
}

// Next draws the next rank in [1, N].
func (z *Zipf) Next() uint64 { return z.z.Uint64() + 1 }

// Discrete draws an index in [0, len(weights)) with probability
// proportional to weights[i]. It drives categorical choices such as the
// file reference-plan classes (§5.3).
type Discrete struct {
	cum   []float64
	total float64
}

// NewDiscrete builds a discrete distribution over the given weights.
func NewDiscrete(weights ...float64) *Discrete {
	d := &Discrete{}
	for _, w := range weights {
		if w < 0 {
			panic("stats: negative discrete weight")
		}
		d.total += w
		d.cum = append(d.cum, d.total)
	}
	if d.total <= 0 {
		panic("stats: discrete distribution has zero total weight")
	}
	return d
}

// Sample draws an index.
func (d *Discrete) Sample(r *rand.Rand) int {
	u := r.Float64() * d.total
	i := sort.SearchFloat64s(d.cum, u)
	if i >= len(d.cum) {
		i = len(d.cum) - 1
	}
	return i
}

// Geometric draws the number of failures before the first success of a
// Bernoulli(P) process; mean (1-P)/P. Used for burst lengths.
type Geometric struct{ P float64 }

// Sample implements Sampler (returns a float-valued count).
func (g Geometric) Sample(r *rand.Rand) float64 {
	if g.P <= 0 || g.P > 1 {
		panic("stats: geometric P out of (0,1]")
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return math.Floor(math.Log(u) / math.Log(1-g.P))
}
