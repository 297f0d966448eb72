package filemig

import (
	"context"

	"filemig/internal/experiment"
	"filemig/internal/host"
	"filemig/internal/workload"
)

// This file is the facade over the experiment layer: the workload
// scenario library and the declarative spec → plan → grid → manifest
// runner (internal/experiment), the machinery behind cmd/migexp and
// examples/capacityplan. See docs/experiments.md for the spec format.

// Scenarios returns the named workload scenario library: presets
// (paper-1993, diurnal-interactive, checkpoint-restart, archive-coldscan)
// selectable by name in experiment specs.
func Scenarios() []workload.Scenario { return workload.Scenarios() }

// ScenarioConfig builds the named scenario's generator configuration at
// the given scale and seed.
func ScenarioConfig(name string, scale float64, seed int64) (workload.Config, error) {
	return workload.ScenarioConfig(name, scale, seed)
}

// The experiment types are re-exported as aliases so consumers outside
// the module can construct specs and read manifests through the facade
// alone — internal/experiment itself cannot be imported from elsewhere.

// ExperimentSpec is a declarative experiment: workload scenarios (or a
// trace file) × policies × capacities × STP exponents. See
// docs/experiments.md for every field, default and validation rule.
type ExperimentSpec = experiment.Spec

// ExperimentManifest is an executed experiment's deterministic result
// document.
type ExperimentManifest = experiment.Manifest

// ExperimentScenarioResult is one workload source's block of an
// ExperimentManifest.
type ExperimentScenarioResult = experiment.ScenarioResult

// LoadExperiment parses a JSON experiment spec from disk.
func LoadExperiment(path string) (*ExperimentSpec, error) {
	return experiment.ParseFile(path)
}

// RunExperiment executes a declarative experiment spec — every workload
// scenario × policy × capacity cell, fanned over the bounded worker
// pool (spec.Workers goroutines; 0 means one per CPU) — and
// returns its deterministic manifest.
func RunExperiment(spec *ExperimentSpec) (*ExperimentManifest, error) {
	return RunExperimentContext(context.Background(), spec)
}

// RunExperimentContext is RunExperiment with cancellation: a cancelled
// ctx aborts between grid cells and surfaces ctx's error; it never
// changes the manifest.
func RunExperimentContext(ctx context.Context, spec *ExperimentSpec) (*ExperimentManifest, error) {
	if spec.Workers == 0 { // a negative count is left for validation to reject
		resolved := *spec // the caller's spec is not ours to edit
		resolved.Workers = host.DefaultWorkers()
		spec = &resolved
	}
	return experiment.Run(ctx, spec)
}

// RenderExperiment renders a manifest as the human-readable per-scenario
// miss-ratio tables.
func RenderExperiment(m *ExperimentManifest) string {
	return experiment.RenderManifest(m)
}
