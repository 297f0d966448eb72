// Package workload synthesizes NCAR-like mass-storage request traces. The
// paper's raw data (24 months of MSS system logs, ~3.5 million requests)
// is proprietary and lost to history, so this package reconstructs a
// statistically equivalent stream from the published aggregates, using the
// causal mechanisms the paper identifies:
//
//   - human-driven interactive reads with one-day and one-week periodicity,
//     holiday dips and two-year growth (§5.2, Figures 4-6);
//   - machine-driven batch writes, nearly constant around the clock and
//     calendar (§5.2);
//   - a per-file reference plan reproducing Figure 8's reference-count
//     marginals (50% of files never read, 44% written once and never read,
//     57% touched exactly once) and Figure 9's interreference intervals
//     (70% under a day, tail beyond a year);
//   - file sizes from a heavy-tailed mixture matching Figures 10-11 and
//     the Table 3/4 averages, capped at the MSS's 200 MB file limit;
//   - the MSS placement policy (files ≤ 30 MB on disk, larger on tape,
//     old files on operator-mounted shelf tape) for device routing (§3.1);
//   - session bursts so that 90% of successive requests arrive within 10
//     seconds of each other (Figure 7) and ~4.76% error requests (§5.1).
package workload

import (
	"time"

	"filemig/internal/trace"
)

// Paper-scale constants (Table 3, Table 4, §3, §5).
const (
	// PaperSpanDays is the trace length: October 1990 – September 1992.
	PaperSpanDays = 731
	// PaperFiles is the referenced-file population (Table 4: "over 900,000").
	PaperFiles = 905000
	// PaperUsers is the user population (§5.1: ~4,000 users).
	PaperUsers = 4000
	// ErrorFraction is the share of requests that failed (§5.1: 4.76%).
	ErrorFraction = 0.0476
	// MSSFileCap is the 200 MB per-file limit (files cannot span tapes).
	MSSFileCap = 200e6
	// DiskThreshold is the MSS placement rule: files at or under 30 MB
	// stay on the 3090 disks, larger files go straight to tape (§3.1).
	DiskThreshold = 30e6
	// DedupWindow is the analysis window of §5.3: at most one read and one
	// write per file per eight hours.
	DedupWindow = 8 * time.Hour
)

// Config parameterises a synthetic trace. Use DefaultConfig and override.
type Config struct {
	Scale float64   // population/request scale relative to the paper (0, 1]
	Seed  int64     // master RNG seed
	Start time.Time // trace start (default trace.Epoch: 1990-10-01)
	Days  int       // trace length in days (default 731)

	Files int // number of files (derived from Scale if zero)
	Users int // number of users (derived from Scale if zero)

	// DuplicateMean is the mean number of extra raw requests issued per
	// logical access within the dedup window (§6: about one third of all
	// requests came within eight hours of another request for the same
	// file). Explicit duplicates plus the naturally short write-then-read
	// gaps together produce that third; mean 0.25 calibrates the split.
	DuplicateMean float64

	// Bursts controls session packing (Figure 7). When false, requests are
	// spread evenly through their hour instead — the ablation mode.
	Bursts bool

	// Holidays controls the Thanksgiving/Christmas read dips (Figure 6).
	Holidays bool

	// ReadGrowth is the ratio of read intensity at trace end to trace
	// start (Figure 6 shows roughly a doubling over the two years).
	ReadGrowth float64

	// ErrorFraction of requests reference nonexistent files (§5.1).
	ErrorFraction float64

	// DiurnalSharpness reshapes the Figure 4 read hour-of-day profile:
	// each hourly weight is raised to this exponent before sampling, so
	// values above 1 exaggerate the 8 AM surge and the overnight lull
	// while values below 1 flatten the curve toward machine-like
	// round-the-clock activity. Zero (or 1) keeps the paper's calibrated
	// shape. The exponent changes only the sampling weights, never the
	// number of RNG draws, so traces stay deterministic per Config.
	DiurnalSharpness float64

	// BurstMean is the mean session length used by burst packing
	// (Figure 7 calibrates the paper's ~12 requests per session). Zero
	// keeps the calibrated default; larger values model long batch
	// trains, smaller ones isolated interactive requests. Ignored when
	// Bursts is false.
	BurstMean float64

	// SizeScale multiplies every sampled file size, clamped to the
	// [2 KB, MSSFileCap] range the population model already enforces.
	// Zero (or 1) keeps the paper's Figure 10/11 mixture; checkpoint-style
	// workloads use values above 1. Scaling is a post-pass over the
	// sampled population, so it never perturbs the RNG streams.
	SizeScale float64
}

// DefaultConfig returns the paper-calibrated configuration at the given
// scale in (0, 1]. Scale 1.0 reproduces the full two-year, ~3.5M-request
// trace; tests typically run at 0.01–0.05.
func DefaultConfig(scale float64, seed int64) Config {
	if scale <= 0 || scale > 1 {
		panic("workload: scale must be in (0, 1]")
	}
	return Config{
		Scale:         scale,
		Seed:          seed,
		Start:         trace.Epoch,
		Days:          PaperSpanDays,
		Files:         intScale(PaperFiles, scale),
		Users:         intScale(PaperUsers, scale),
		DuplicateMean: 0.25,
		Bursts:        true,
		Holidays:      true,
		ReadGrowth:    2.0,
		ErrorFraction: ErrorFraction,
	}
}

func intScale(n int, scale float64) int {
	v := int(float64(n) * scale)
	if v < 1 {
		return 1
	}
	return v
}

// span reports the trace duration.
func (c *Config) span() time.Duration { return time.Duration(c.Days) * 24 * time.Hour }

// end reports the first instant after the trace.
func (c *Config) end() time.Time { return c.Start.Add(c.span()) }
