package lint

import (
	"sort"
	"strconv"
	"strings"
)

// Layering machine-checks the package dependency diagram in
// ARCHITECTURE.md. Each internal package may import only the internal
// packages its row in allowedImports grants; the filemig facade may
// import any internal package except lint; cmd/* binaries may import
// anything; examples/* may import anything except lint. A new
// internal package, or a new edge, is a diagnostic until both the table
// below and the ARCHITECTURE.md diagram are updated — the two cannot
// drift apart silently.
var Layering = &Analyzer{
	Name:     "layering",
	Doc:      "enforce the ARCHITECTURE.md package dependency diagram",
	Suppress: "layering-ok",
	Run:      runLayering,
}

// allowedImports grants, per internal package, the set of internal
// packages it may import. This is the ARCHITECTURE.md diagram in
// machine-checkable form — change them together.
var allowedImports = map[string][]string{
	"units":      {},
	"stats":      {},
	"pool":       {},
	"sim":        {"units"},
	"device":     {"units"},
	"namespace":  {"stats", "units"},
	"trace":      {"device", "pool", "units"},
	"workload":   {"device", "namespace", "stats", "trace", "units"},
	"mss":        {"device", "sim", "stats", "trace", "units"},
	"core":       {"device", "namespace", "pool", "stats", "trace", "units", "workload"},
	"migration":  {"pool", "trace", "units"},
	"experiment": {"migration", "trace", "units", "workload"},
	"dist":       {"core", "experiment", "pool", "trace"},
	"serve":      {"core", "dist", "migration", "pool", "trace", "units"},
	"dist/chaos": {},
	"host":       {},
	"lint":       {},
}

// internalPrefix is the path prefix of the layered packages.
const internalPrefix = ModulePath + "/internal/"

// layerName extracts the short internal-package name ("core") from a
// full import path, or "" if the path is not an internal package.
func layerName(pkgPath string) string {
	if !strings.HasPrefix(pkgPath, internalPrefix) {
		return ""
	}
	return strings.TrimPrefix(pkgPath, internalPrefix)
}

func runLayering(p *Pass) {
	if !InModule(p.Path) {
		return
	}
	check := layeringRule(p.Path)
	if check == nil {
		return
	}
	for _, f := range p.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || !InModule(path) {
				continue
			}
			if why := check(path); why != "" {
				p.Reportf(imp.Pos(), "%s must not import %s: %s", p.Path, path, why)
			}
		}
	}
}

// layeringRule returns the import-checking function for pkgPath, or nil
// if the package is unconstrained (cmd/* binaries).
func layeringRule(pkgPath string) func(importPath string) string {
	switch {
	case strings.HasPrefix(pkgPath, ModulePath+"/cmd/"):
		return nil
	case strings.HasPrefix(pkgPath, ModulePath+"/examples/"):
		return func(importPath string) string {
			if layerName(importPath) == "lint" {
				return "examples demonstrate the library, not the lint tooling"
			}
			return ""
		}
	case pkgPath == ModulePath:
		return func(importPath string) string {
			if layerName(importPath) == "lint" {
				return "the facade re-exports analysis, not the lint tooling (only cmd/miglint uses it)"
			}
			return ""
		}
	default:
		self := layerName(pkgPath)
		if self == "" {
			return nil
		}
		allowed, known := allowedImports[self]
		if !known {
			return func(importPath string) string {
				return "package " + pkgPath + " is not in the ARCHITECTURE.md dependency table; " +
					"add its row to allowedImports in internal/lint/layering.go and to the diagram"
			}
		}
		set := map[string]bool{}
		for _, a := range allowed {
			set[a] = true
		}
		return func(importPath string) string {
			target := layerName(importPath)
			if target == "" {
				return "internal packages must not import the facade or commands"
			}
			if !set[target] {
				return "the ARCHITECTURE.md layering grants " + self + " only {" +
					strings.Join(sortedCopy(allowedImports[self]), ", ") + "}"
			}
			return ""
		}
	}
}

// sortedCopy returns a sorted copy of ss for stable diagnostics.
func sortedCopy(ss []string) []string {
	out := append([]string(nil), ss...)
	sort.Strings(out)
	return out
}
