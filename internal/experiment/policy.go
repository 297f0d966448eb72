package experiment

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"filemig/internal/migration"
)

// Policy grammar: a spec names each policy as "name" or "name:arg".
// Parsing happens at validation time so a bad spec fails before any
// trace is generated; instantiation happens per cell at run time, since
// stateful policies (random, opt) must never be shared between replays.

// policyEntry is one resolved policy column of the grid: its canonical
// display name and a builder called once per cell with the loaded
// source. The modern policies (ARC, LRU-K, GDSF, cost, STP-adapt),
// random and OPT all carry per-replay state — histories, ghost lists,
// clocks, cursors — so their builders return a fresh instance every
// call. future marks a builder that reads the source's FutureRows, which
// a source then builds once, as it loads, for all of its cells.
type policyEntry struct {
	name   string
	mk     func(src *loadedSource) migration.Policy
	future bool
}

// stateless wraps a value policy (no per-replay state) as a policyEntry.
func stateless(p migration.Policy) policyEntry {
	return policyEntry{name: p.Name(), mk: func(*loadedSource) migration.Policy { return p }}
}

// parsePolicy resolves one policy spec string.
func parsePolicy(spec string) (policyEntry, error) {
	name, arg, hasArg := strings.Cut(strings.TrimSpace(spec), ":")
	switch name {
	case "stp":
		k := 1.4
		if hasArg {
			var err error
			k, err = strconv.ParseFloat(arg, 64)
			if err != nil || k < 0 || math.IsNaN(k) || math.IsInf(k, 0) {
				return policyEntry{}, fmt.Errorf("experiment: bad STP exponent %q in %q", arg, spec)
			}
		}
		return stateless(migration.STP{K: k}), nil
	case "lru":
		return noArg(spec, hasArg, stateless(migration.LRU{}))
	case "fifo":
		return noArg(spec, hasArg, stateless(migration.FIFO{}))
	case "saac":
		return noArg(spec, hasArg, stateless(migration.SAAC{}))
	case "largest-first":
		return noArg(spec, hasArg, stateless(migration.LargestFirst{}))
	case "smallest-first":
		return noArg(spec, hasArg, stateless(migration.SmallestFirst{}))
	case "random":
		seed := int64(1)
		if hasArg {
			var err error
			if seed, err = strconv.ParseInt(arg, 10, 64); err != nil {
				return policyEntry{}, fmt.Errorf("experiment: bad random seed %q in %q", arg, spec)
			}
		}
		// Every cell restarts the same seeded sequence, so the column
		// stays deterministic and cells stay independent. The display
		// name carries the seed (like STP carries its exponent) so two
		// seeds can share a grid and rows say which seed ran.
		return policyEntry{name: "random:" + strconv.FormatInt(seed, 10),
			mk: func(*loadedSource) migration.Policy { return migration.NewRandom(seed) }}, nil
	case "opt":
		// The future index's rows are the source's, built once; its
		// cursors are per replay, so each cell gets its own view.
		return noArg(spec, hasArg, policyEntry{name: "OPT", future: true,
			mk: func(src *loadedSource) migration.Policy {
				return migration.NewOPT(src.future.Index())
			}})
	case "arc":
		// ARC carries ghost lists and an adaptive target; NewCache hands
		// it the cell's capacity, so each cell needs a fresh instance.
		return noArg(spec, hasArg, policyEntry{name: "ARC",
			mk: func(*loadedSource) migration.Policy { return migration.NewARC() }})
	case "lruk":
		k := 2
		if hasArg {
			var err error
			if k, err = strconv.Atoi(arg); err != nil || k < 1 {
				return policyEntry{}, fmt.Errorf(
					"experiment: bad LRU-K depth %q in %q (want integer >= 1)", arg, spec)
			}
		}
		return policyEntry{name: "LRU-" + strconv.Itoa(k),
			mk: func(*loadedSource) migration.Policy { return migration.NewLRUK(k) }}, nil
	case "gdsf":
		return noArg(spec, hasArg, policyEntry{name: "GDSF",
			mk: func(*loadedSource) migration.Policy { return migration.NewGDSF() }})
	case "cost":
		rate := migration.DefaultTapeRateMBps
		if hasArg {
			var err error
			if rate, err = strconv.Atoi(arg); err != nil || rate < 1 {
				return policyEntry{}, fmt.Errorf(
					"experiment: bad cost transfer rate %q in %q (want MB/s integer >= 1)", arg, spec)
			}
		}
		// The display name carries the rate (like random carries its
		// seed), so two rates can share a grid.
		return policyEntry{name: "cost:" + strconv.Itoa(rate),
			mk: func(*loadedSource) migration.Policy { return migration.NewCostAware(rate) }}, nil
	case "stp-adapt":
		return noArg(spec, hasArg, policyEntry{name: "STP-adapt",
			mk: func(*loadedSource) migration.Policy { return migration.NewAdaptiveSTP() }})
	default:
		return policyEntry{}, fmt.Errorf("experiment: unknown policy %q (known: %s)",
			spec, strings.Join(PolicyNames(), ", "))
	}
}

// noArg rejects an argument on policies that take none.
func noArg(spec string, hasArg bool, e policyEntry) (policyEntry, error) {
	if hasArg {
		return policyEntry{}, fmt.Errorf("experiment: policy %q takes no argument", spec)
	}
	return e, nil
}

// PolicyNames lists the accepted policy spec names, in grammar order.
func PolicyNames() []string {
	return []string{"stp[:K]", "lru", "fifo", "saac", "largest-first",
		"smallest-first", "random[:seed]", "opt",
		"arc", "lruk[:K]", "gdsf", "cost[:K]", "stp-adapt"}
}

// policySet resolves the spec's policy axis: the explicit policies in
// order, then one STP^k per requested exponent, deduplicated by display
// name (an exponent that repeats an explicit stp entry is dropped; an
// explicit duplicate is an error).
func (s *Spec) policySet() ([]policyEntry, error) {
	var out []policyEntry
	seen := map[string]bool{}
	for _, p := range s.Policies {
		e, err := parsePolicy(p)
		if err != nil {
			return nil, err
		}
		if seen[e.name] {
			return nil, fmt.Errorf("experiment: policy %s listed twice", e.name)
		}
		seen[e.name] = true
		out = append(out, e)
	}
	for _, k := range s.STPExponents {
		e := stateless(migration.STP{K: k})
		if seen[e.name] {
			continue
		}
		seen[e.name] = true
		out = append(out, e)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiment: spec %s compares no policies", s.Name)
	}
	return out, nil
}
