package workload

import (
	"math/rand"

	"filemig/internal/stats"
	"filemig/internal/units"
)

// FileKind distinguishes the two size regimes visible in Figure 10: batch
// model output is written in near-constant chunks (the 8 MB bump), while
// everything else draws from the heavy-tailed general mixture.
type FileKind int

// File kinds.
const (
	KindGeneral FileKind = iota
	KindModelChunk
)

// RefClass is the joint read/write reference-count class of a file,
// constructed so the marginals reproduce Figure 8:
//
//	reads:  50% zero, 25% one, 25% two or more;
//	writes: 21% zero (files created before the trace), 65% one, 14% more;
//	44% written once and never read; 57% accessed exactly once.
type RefClass int

// Reference classes. W = writes during trace, R = reads during trace.
const (
	W1R0 RefClass = iota // written once, never read (44%)
	W0R1                 // pre-existing, read once (13%)
	W0Rn                 // pre-existing, read several times (8%)
	W1R1                 // written once, read once (10%)
	W1Rn                 // written once, read several times (11%)
	WnR0                 // rewritten, never read (6%)
	WnR1                 // rewritten, read once (2%)
	WnRn                 // rewritten and reread (6%)
)

// classWeights are the joint probabilities above; they are the unique
// solution (up to the free multi-multi split) of the paper's published
// marginals.
var classWeights = []float64{0.44, 0.13, 0.08, 0.10, 0.11, 0.06, 0.02, 0.06}

// reads/writes report whether the class has zero, one, or many (-1) of each.
func (c RefClass) reads() int {
	switch c {
	case W1R0, WnR0:
		return 0
	case W0R1, W1R1, WnR1:
		return 1
	default:
		return -1
	}
}

func (c RefClass) writes() int {
	switch c {
	case W0R1, W0Rn:
		return 0
	case W1R0, W1R1, W1Rn:
		return 1
	default:
		return -1
	}
}

// File is one member of the synthetic population.
type File struct {
	ID        int
	Size      units.Bytes
	Owner     uint32
	Class     RefClass
	Kind      FileKind
	PreExists bool // created before the trace started (the W0 classes)
}

// sizeMixture is the general file-size model. Calibration targets: about
// half of files at or under 3 MB holding ~2% of bytes (Figure 11), a mean
// near 25 MB (Table 4), and nothing above the 200 MB MSS cap.
func sizeMixture() stats.Sampler {
	return stats.Bounded{
		Inner: stats.NewMixture(
			// Small interactive files: scripts, plots, parameter sets.
			// Median 0.35 MB puts ~40% of requests at or under 1 MB
			// (Figure 10) and ~half of files under 3 MB (Figure 11).
			stats.MixtureComponent{Weight: 0.58, Sampler: stats.Lognormal{Median: 0.35e6, Sigma: 1.6}},
			// Mid-size model history files.
			stats.MixtureComponent{Weight: 0.30, Sampler: stats.Lognormal{Median: 28e6, Sigma: 0.9}},
			// Near-cap archives: big runs split into ≤200 MB pieces.
			stats.MixtureComponent{Weight: 0.12, Sampler: stats.Lognormal{Median: 120e6, Sigma: 0.45}},
		),
		Lo: 2e3, // 2 KB floor: the MSS held no empty bitfiles
		Hi: MSSFileCap,
	}
}

// modelChunkSize is the batch-output chunk size: tightly clustered around
// 8 MB (Figure 10's write bump).
func modelChunkSize() stats.Sampler {
	return stats.Bounded{
		Inner: stats.Lognormal{Median: 8e6, Sigma: 0.06},
		Lo:    6e6,
		Hi:    10e6,
	}
}

// modelChunkFraction is the share of files that are batch model chunks.
const modelChunkFraction = 0.06

// preExistShrink scales pre-trace files: §5.4 and Table 3 imply older
// files are smaller (manual-tape reads average 47 MB against the silo's
// 80 MB), reflecting the growth of file sizes over time.
const preExistShrink = 0.6

// rereadBoost inflates files in the read-several-times classes: the files
// scientists keep coming back to are the big model history files, which
// is what pushes Table 3's average read size (27.4 MB) above the average
// write size (19.8 MB) and gives reads 73% of the bytes on 66% of the
// references.
const rereadBoost = 2.0

// Population is the full synthetic file set.
type Population struct {
	Files []File
}

// NewPopulation draws n files deterministically from seed. Users own files
// with a Zipf-skewed popularity so a few groups dominate, as at any shared
// centre.
func NewPopulation(n, users int, rng *rand.Rand) *Population {
	classes := stats.NewDiscrete(classWeights...)
	general := sizeMixture()
	chunk := modelChunkSize()
	userZipf := stats.NewZipf(rng, 1.3, uint64(users))
	p := &Population{Files: make([]File, n)}
	for i := range p.Files {
		f := &p.Files[i]
		f.ID = i
		f.Class = RefClass(classes.Sample(rng))
		f.PreExists = f.Class.writes() == 0
		f.Owner = uint32(userZipf.Next())
		if rng.Float64() < modelChunkFraction && !f.PreExists {
			f.Kind = KindModelChunk
			f.Size = units.Bytes(chunk.Sample(rng))
		} else {
			f.Kind = KindGeneral
			s := general.Sample(rng)
			if f.PreExists {
				s *= preExistShrink
				if s < 2e3 {
					s = 2e3
				}
			}
			if f.Class.reads() < 0 { // read-several-times classes
				s *= rereadBoost
				if s > MSSFileCap {
					s = MSSFileCap
				}
			}
			f.Size = units.Bytes(s)
		}
	}
	return p
}

// ScaleSizes multiplies every file size by scale, clamped to the model's
// [2 KB, MSSFileCap] range (Config.SizeScale). Scale <= 0 or exactly 1
// leaves the population untouched. It is a deterministic post-pass: no
// RNG is consumed, so the rest of the generation pipeline is unaffected.
func (p *Population) ScaleSizes(scale float64) {
	if scale <= 0 || scale == 1 {
		return
	}
	for i := range p.Files {
		s := float64(p.Files[i].Size) * scale
		if s > MSSFileCap {
			s = MSSFileCap
		}
		if s < 2e3 {
			s = 2e3
		}
		p.Files[i].Size = units.Bytes(s)
	}
}
