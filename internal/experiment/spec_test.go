package experiment

import (
	"strings"
	"testing"
)

func TestParseAndNormalize(t *testing.T) {
	s, err := Parse(strings.NewReader(`{
		"name": "t",
		"scenarios": ["paper-1993", "archive-coldscan"],
		"scale": 0.002, "seed": 9, "days": 30,
		"policies": ["stp:1.4", "opt", "random:7"],
		"stpExponents": [1.4, 2.0],
		"capacities": [0.01, 0.05],
		"workers": 3
	}`))
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(s)
	if err != nil {
		t.Fatal(err)
	}
	// The 1.4 exponent duplicates the explicit stp:1.4 and is dropped;
	// 2.0 lands as a fourth column.
	want := []string{"STP^1.4", "OPT", "random:7", "STP^2"}
	if got := strings.Join(plan.Policies, ","); got != strings.Join(want, ",") {
		t.Errorf("policies %s, want %s", got, strings.Join(want, ","))
	}
	if plan.Cells() != 2*4*2 {
		t.Errorf("cells %d, want 16", plan.Cells())
	}
	if !strings.Contains(plan.Describe(), "2 sources × 4 policies × 2 capacities") {
		t.Errorf("Describe missing grid shape:\n%s", plan.Describe())
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	// "polices" is a deliberate misspelling of "policies": the point of
	// DisallowUnknownFields is exactly that a typo'd field name fails
	// loudly instead of silently running the default policy set.
	if _, err := Parse(strings.NewReader(`{"name":"t","polices":["lru"]}`)); err == nil {
		t.Fatal("typo'd field accepted")
	}
	// A field that was never close to valid is rejected the same way.
	if _, err := Parse(strings.NewReader(`{"name":"t","frobnicate":1}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := Parse(strings.NewReader(`{"name":"t"}{"name":"u"}`)); err == nil {
		t.Fatal("trailing document accepted")
	}
}

func TestNormalizeDefaults(t *testing.T) {
	n := (Spec{Name: "d"}).Normalize()
	if _, err := n.validate(); err != nil {
		t.Fatalf("defaults do not validate: %v", err)
	}
	if len(n.Scenarios) != 1 || n.Scenarios[0] != "paper-1993" {
		t.Errorf("default scenarios %v", n.Scenarios)
	}
	if n.Scale != DefaultScale || n.Seed != DefaultSeed {
		t.Errorf("default scale/seed %v/%d", n.Scale, n.Seed)
	}
	if len(n.Policies) != len(DefaultPolicies) || len(n.Capacities) != len(DefaultCapacities) {
		t.Errorf("default policies/capacities %v/%v", n.Policies, n.Capacities)
	}
}

func TestValidateRejections(t *testing.T) {
	base := func() Spec {
		return (Spec{Name: "v", Scenarios: []string{"paper-1993"}}).Normalize()
	}
	cases := []struct {
		label  string
		mutate func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = " " }},
		{"unknown scenario", func(s *Spec) { s.Scenarios = []string{"paper-2093"} }},
		{"duplicate scenario", func(s *Spec) { s.Scenarios = []string{"paper-1993", "paper-1993"} }},
		{"scale zero", func(s *Spec) { s.Scale = -0.5 }},
		{"scale above one", func(s *Spec) { s.Scale = 1.5 }},
		{"short days", func(s *Spec) { s.Days = 3 }},
		{"unknown policy", func(s *Spec) { s.Policies = []string{"mru"} }},
		{"bad stp arg", func(s *Spec) { s.Policies = []string{"stp:fast"} }},
		{"arg on lru", func(s *Spec) { s.Policies = []string{"lru:2"} }},
		{"duplicate policy", func(s *Spec) { s.Policies = []string{"lru", "lru"} }},
		{"duplicate random seed", func(s *Spec) { s.Policies = []string{"random", "random:1"} }},
		{"missing trace file", func(s *Spec) { s.Trace = "no/such/trace.v1" }},
		{"zero capacity", func(s *Spec) { s.Capacities = []float64{0.01, 0} }},
		{"negative exponent", func(s *Spec) { s.STPExponents = []float64{-1} }},
		{"negative workers", func(s *Spec) { s.Workers = -2 }},
	}
	for _, c := range cases {
		s := base()
		c.mutate(&s)
		if _, err := s.validate(); err == nil {
			t.Errorf("%s: validated", c.label)
		}
	}
	s := base()
	if _, err := s.validate(); err != nil {
		t.Errorf("base spec rejected: %v", err)
	}
}

func TestPolicyGrammar(t *testing.T) {
	for _, good := range []string{"stp", "stp:0.5", "lru", "fifo", "saac",
		"largest-first", "smallest-first", "random", "random:42", "opt",
		"arc", "lruk", "lruk:1", "lruk:3", "gdsf", "cost", "cost:4", "stp-adapt"} {
		if _, err := parsePolicy(good); err != nil {
			t.Errorf("%s rejected: %v", good, err)
		}
	}
	// The modern defaults carry their argument in the display name.
	for spec, want := range map[string]string{
		"arc": "ARC", "lruk": "LRU-2", "lruk:3": "LRU-3", "gdsf": "GDSF",
		"cost": "cost:2", "cost:40": "cost:40", "stp-adapt": "STP-adapt",
	} {
		if e, err := parsePolicy(spec); err != nil || e.name != want {
			t.Errorf("parsePolicy(%q) = %q, %v; want %q", spec, e.name, err, want)
		}
	}
	// Two random seeds are distinct grid columns.
	r1, _ := parsePolicy("random")
	r7, _ := parsePolicy("random:7")
	if r1.name != "random:1" || r7.name != "random:7" {
		t.Errorf("random names %q, %q — seed not in display name", r1.name, r7.name)
	}
	// STP labels are lossless: exponents that agree to two decimals stay
	// distinct columns (STP.Name() would truncate both to STP^1.25).
	s := Spec{Name: "k", Policies: []string{"stp:1.251", "stp:1.259"},
		STPExponents: []float64{1.251, 1.2590001}}
	entries, err := s.policySet()
	if err != nil {
		t.Fatalf("close exponents rejected: %v", err)
	}
	names := map[string]bool{}
	for _, e := range entries {
		names[e.name] = true
	}
	if len(names) != 3 {
		t.Errorf("policy set %v, want 3 distinct lossless STP names", names)
	}
	for _, bad := range []string{"", "stp:", "stp:-1", "random:x", "opt:1", "clock",
		"arc:1", "lruk:0", "lruk:-2", "lruk:1.5", "lruk:x", "gdsf:2",
		"cost:0", "cost:-1", "cost:2.5", "stp-adapt:1.4"} {
		if _, err := parsePolicy(bad); err == nil {
			t.Errorf("%q accepted", bad)
		}
	}
}
