// Package experiment turns declarative experiment specs into executed
// result grids. The paper's results are all of one shape — replay a
// workload against a cache under several policies, capacities, and
// parameter settings, then compare figures of merit — and before this
// package every such grid lived as ad-hoc wiring in a command or an
// example. A spec names the workload scenarios (or a trace file), the
// policy set, the capacity sweep, and the STP exponents; the runner
// expands it into a plan, generates each scenario's trace exactly once,
// fans the policy × capacity cells over the bounded worker pool, and
// emits a deterministic manifest: the same spec and seed produce a
// byte-identical JSON document at any worker count.
package experiment

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"

	"filemig/internal/workload"
)

// Default knobs applied by Normalize when a spec omits the field.
var (
	// DefaultScenarios is the workload set used when a spec names
	// neither scenarios nor a trace file.
	DefaultScenarios = []string{"paper-1993"}
	// DefaultPolicies is the policy set used when a spec names neither
	// policies nor STP exponents — the §2.3 capacity-planning trio.
	DefaultPolicies = []string{"stp:1.4", "lru", "largest-first"}
	// DefaultCapacities is the §2.3 capacity sweep, as fractions of the
	// referenced data.
	DefaultCapacities = []float64{0.005, 0.01, 0.015, 0.02, 0.05, 0.10}
)

// DefaultScale is the workload scale used when a spec omits scale: 1% of
// the paper's two-year trace, the scale the repository's examples use.
const DefaultScale = 0.01

// DefaultSeed is the master seed used when a spec omits seed.
const DefaultSeed = 1

// Spec is a declarative experiment: one JSON document describing the
// full workload × policy × capacity × exponent grid. The zero value of
// every optional field means "use the default" (see Normalize); the
// docs/experiments.md reference describes each field, its default, and
// its validation rule.
type Spec struct {
	// Name identifies the experiment in the manifest. Required.
	Name string `json:"name"`
	// Description is free-form documentation echoed into the manifest.
	Description string `json:"description,omitempty"`

	// Scenarios names workload presets from the scenario library
	// (workload.Scenarios). Default: ["paper-1993"] when Trace is also
	// empty.
	Scenarios []string `json:"scenarios,omitempty"`
	// Trace is a trace file to replay as an additional source ("-" is
	// not supported: specs must be reproducible from disk). The file may
	// be in either trace encoding; it is re-encoded canonically for the
	// manifest hash.
	Trace string `json:"trace,omitempty"`

	// Scale sizes generated workloads relative to the paper's two-year
	// trace, in (0, 1]. Default 0.01.
	Scale float64 `json:"scale,omitempty"`
	// Seed is the master RNG seed for generated workloads. Default 1.
	Seed int64 `json:"seed,omitempty"`
	// Days shortens generated workloads from each scenario's own length
	// (the paper's 731 days) when positive. Minimum 7.
	Days int `json:"days,omitempty"`

	// Policies names the migration policies to compare. Grammar:
	// "stp[:K]", "lru", "fifo", "saac", "largest-first",
	// "smallest-first", "random[:seed]", "opt". Default (with no
	// STPExponents either): ["stp:1.4", "lru", "largest-first"].
	Policies []string `json:"policies,omitempty"`
	// STPExponents adds one STP^k policy per exponent — the Smith
	// ablation axis. Exponents duplicating an explicit stp policy are
	// ignored.
	STPExponents []float64 `json:"stpExponents,omitempty"`
	// Capacities is the cache sweep, as fractions of each source's
	// total referenced bytes. Default: the §2.3 sweep, 0.5% to 10%.
	Capacities []float64 `json:"capacities,omitempty"`

	// Workers bounds the replay worker pool. This package takes only
	// explicit counts (<= 1 runs serially); the migexp CLI and the
	// filemig facade resolve 0 to one worker per CPU at the boundary. An
	// execution knob, not an experiment parameter: it never changes
	// results, and the manifest echoes it as zero so manifests stay
	// byte-identical across worker counts.
	Workers int `json:"workers,omitempty"`
}

// Parse reads a JSON spec. Unknown fields are errors, so a typo'd knob
// fails loudly instead of silently running the default grid.
func Parse(r io.Reader) (*Spec, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("experiment: parse spec: %w", err)
	}
	// A second document in the stream is almost certainly a mistake.
	if err := dec.Decode(new(json.RawMessage)); err != io.EOF {
		return nil, fmt.Errorf("experiment: trailing data after spec")
	}
	return &s, nil
}

// ParseFile reads a JSON spec from disk.
func ParseFile(path string) (*Spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("experiment: %w", err)
	}
	defer f.Close()
	s, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return s, nil
}

// Normalize returns a copy with every omitted optional field replaced by
// its documented default. Validation (and therefore Run) operates on the
// normalized form.
func (s Spec) Normalize() Spec {
	if len(s.Scenarios) == 0 && s.Trace == "" {
		s.Scenarios = append([]string(nil), DefaultScenarios...)
	}
	if s.Scale == 0 {
		s.Scale = DefaultScale
	}
	if s.Seed == 0 {
		s.Seed = DefaultSeed
	}
	if len(s.Policies) == 0 && len(s.STPExponents) == 0 {
		s.Policies = append([]string(nil), DefaultPolicies...)
	}
	if len(s.Capacities) == 0 {
		s.Capacities = append([]float64(nil), DefaultCapacities...)
	}
	return s
}

// validate checks a normalized spec against the rules documented in
// docs/experiments.md, reports the first violation, and returns the
// resolved policy set, so BuildPlan can validate and resolve in one pass.
func (s *Spec) validate() ([]policyEntry, error) {
	if strings.TrimSpace(s.Name) == "" {
		return nil, fmt.Errorf("experiment: spec needs a name")
	}
	if len(s.Scenarios) == 0 && s.Trace == "" {
		return nil, fmt.Errorf("experiment: spec %s has no workload source (scenarios or trace)", s.Name)
	}
	seen := map[string]bool{}
	for _, name := range s.Scenarios {
		if _, err := workload.ScenarioConfig(name, 0.01, 1); err != nil {
			return nil, err
		}
		if seen[name] {
			return nil, fmt.Errorf("experiment: scenario %s listed twice", name)
		}
		seen[name] = true
	}
	if s.Trace != "" {
		// Catch a typo'd path at validation time: at run time the file
		// loads only once the scenarios before it are under way.
		if _, err := os.Stat(s.Trace); err != nil {
			return nil, fmt.Errorf("experiment: trace file: %w", err)
		}
	}
	if !(s.Scale > 0 && s.Scale <= 1) {
		return nil, fmt.Errorf("experiment: scale %v out of (0, 1]", s.Scale)
	}
	if s.Days != 0 && s.Days < 7 {
		return nil, fmt.Errorf("experiment: days %d below the generator's 7-day minimum", s.Days)
	}
	for _, k := range s.STPExponents {
		if k < 0 || math.IsInf(k, 0) || math.IsNaN(k) {
			return nil, fmt.Errorf("experiment: STP exponent %v must be a non-negative number", k)
		}
	}
	entries, err := s.policySet()
	if err != nil {
		return nil, err
	}
	if len(s.Capacities) == 0 {
		return nil, fmt.Errorf("experiment: spec %s sweeps no capacities", s.Name)
	}
	for _, c := range s.Capacities {
		if !(c > 0) || math.IsInf(c, 0) || math.IsNaN(c) {
			return nil, fmt.Errorf("experiment: capacity fraction %v must be a positive number", c)
		}
	}
	if s.Workers < 0 {
		return nil, fmt.Errorf("experiment: workers %d must be >= 0", s.Workers)
	}
	return entries, nil
}
