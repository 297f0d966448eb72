package workload

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"filemig/internal/trace"
)

// scenarioGolden pins each named scenario's exact trace at a small scale:
// the scenario library is an experiment-spec surface, so a preset drifting
// silently would invalidate every manifest that names it. Hashes are over
// the v1 ASCII encoding, like TestGenerateGoldenHashes.
var scenarioGolden = map[string]struct {
	n   int
	sha string
}{
	"paper-1993":          {7483, "659d2632fc04694f2e07f65a664a65a0076f19be02c951ec90bb445e2490af4f"},
	"diurnal-interactive": {8724, "e0226a6a80384ef596d1805ac3b277b65c72af60813924db2790fd4d518eabb3"},
	"checkpoint-restart":  {10081, "060ea6e204dd70aa4fe607b2b270994a9ceb01e13ca980d5fdafd0c6e3a0f818"},
	"archive-coldscan":    {6134, "a3715055970d22828dad893e5dbc2b3dde69f67a8e9ee8d960a5d1630d242697"},
}

// scenarioTrace generates the pinned-parameter trace for one scenario.
func scenarioTrace(t *testing.T, s Scenario) *Result {
	t.Helper()
	cfg := s.Configure(0.003, 42)
	cfg.Days = 90
	res, err := Generate(cfg)
	if err != nil {
		t.Fatalf("%s: %v", s.Name, err)
	}
	return res
}

func TestScenarioGoldenHashes(t *testing.T) {
	if len(Scenarios()) != len(scenarioGolden) {
		t.Fatalf("library has %d scenarios, golden table has %d — pin the new one",
			len(Scenarios()), len(scenarioGolden))
	}
	seen := map[string]string{}
	for _, s := range Scenarios() {
		g, ok := scenarioGolden[s.Name]
		if !ok {
			t.Errorf("scenario %s has no golden entry", s.Name)
			continue
		}
		res := scenarioTrace(t, s)
		var buf bytes.Buffer
		if err := trace.WriteAllFormat(&buf, res.Records, trace.FormatASCII); err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes()))
		if len(res.Records) != g.n || got != g.sha {
			t.Errorf("%s: n=%d sha=%s, want n=%d sha=%s",
				s.Name, len(res.Records), got, g.n, g.sha)
		}
		if prev, dup := seen[got]; dup {
			t.Errorf("%s and %s generated identical traces", s.Name, prev)
		}
		seen[got] = s.Name
	}
}

// TestScenarioShapes sanity-checks that each scenario's knobs move the
// trace in the direction its description promises, relative to the paper
// profile.
func TestScenarioShapes(t *testing.T) {
	byName := map[string]*Result{}
	for _, s := range Scenarios() {
		byName[s.Name] = scenarioTrace(t, s)
	}
	paper := byName["paper-1993"]

	// Checkpoint images are larger than the interactive mix.
	if ck := byName["checkpoint-restart"]; ck.Population.MeanSize() <= paper.Population.MeanSize() {
		t.Errorf("checkpoint-restart mean size %v not above paper's %v",
			ck.Population.MeanSize(), paper.Population.MeanSize())
	}

	// The cold scan flattens the day/night swing: compare the share of
	// reads landing in the 8 AM-4 PM working window.
	working := func(r *Result) float64 {
		var day, all int
		for i := range r.Records {
			rec := &r.Records[i]
			if rec.Op != trace.Read || !rec.OK() {
				continue
			}
			all++
			if h := rec.Start.Hour(); h >= 8 && h < 16 {
				day++
			}
		}
		return float64(day) / float64(all)
	}
	pw, cw, iw := working(paper), working(byName["archive-coldscan"]), working(byName["diurnal-interactive"])
	if cw >= pw {
		t.Errorf("archive-coldscan working-hours read share %.3f not below paper's %.3f", cw, pw)
	}
	if iw <= pw {
		t.Errorf("diurnal-interactive working-hours read share %.3f not above paper's %.3f", iw, pw)
	}

	// FindScenario and ScenarioConfig agree with the library.
	if _, ok := FindScenario("no-such-scenario"); ok {
		t.Error("FindScenario invented a scenario")
	}
	if _, err := ScenarioConfig("no-such-scenario", 0.01, 1); err == nil {
		t.Error("ScenarioConfig accepted an unknown name")
	}
	cfg, err := ScenarioConfig(ScenarioPaper1993, 0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cfg != DefaultConfig(0.01, 1) {
		t.Error("paper-1993 drifted from DefaultConfig")
	}
}
