package stats

// The external tests (package stats_test) reach the reference DFT and the
// ranking step through these.
var (
	DirectPeriodogram = directPeriodogram
	RankPeriods       = rankPeriods
)

// RequireSameCurve lets the external workload-shaped test reuse the
// derived-vs-reference curve comparison.
var RequireSameCurve = requireSameCurve
