package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc polices the //filemig:hotpath annotation: inside an
// annotated function, constructs that allocate per call are flagged —
// fmt calls (interface boxing of every argument), string concatenation
// and []byte->string conversions, map inserts, make/new, map and slice
// composite literals, pointers to composite literals, closures, and
// explicit conversions to interface types. append stays legal (the hot
// paths amortize it against pre-sized backing arrays), and allocations
// inside error-return statements are skipped — a corrupt-input exit is
// not the hot path.
//
// The analyzer also *requires* the annotation on the functions whose
// ~0 allocs/record behavior the committed AllocsPerRun regression tests
// assert (the b1 reader body decode, the interner lookups, the analysis
// dedup transition, replay stepping), so the hot-path contract is
// visible at the definition and machine-checked from then on.
var HotAlloc = &Analyzer{
	Name:     "hotalloc",
	Doc:      "flag allocating constructs inside //filemig:hotpath functions",
	Suppress: "hotalloc-ok",
	Run:      runHotAlloc,
}

// hotpathDirective marks a function whose body must not allocate per
// call in the steady state.
const hotpathDirective = "//filemig:hotpath"

// requiredHotpath lists the functions that must carry the annotation,
// per package: the proven ~0 allocs/record loops from PR 3, and the
// daemon's steady-state ingest path (the byte-window wire accessors,
// the table probes, the sums half and the journal-only Observe) that
// TestMigdIngestSteadyStateAllocs holds to zero below the HTTP layer,
// and the index-seek worker path (the dictionary-intern hook, the
// per-block observe loop, the fold's lazy ID translation) that
// TestB2WorkerGroupAllocs holds to a constant per group, and the
// generate → simulate → encode spine (the engine's heap push and pop,
// the request state machine's two step functions, the v1 line writer)
// that TestReplaySteadyStateAllocs and TestV1WriterAllocs fence.
var requiredHotpath = map[string][]string{
	ModulePath + "/internal/sim": {
		"(*Engine).Schedule",
		"(*Engine).step",
	},
	ModulePath + "/internal/mss": {
		"(*request).Fire",
		"(*request).Granted",
	},
	ModulePath + "/internal/trace": {
		"(*Writer).Write",
		"(*BinaryReader).decodeBody",
		"(*Interner).Intern",
		"(*Interner).InternBytes",
		"(*Interner).InternHashed",
		"(*Interner).Lookup",
		"(*WireReader).ReadByte",
		"(*WireReader).Uvarint",
		"(*WireReader).Bytes",
		"decodeB2Columns",
		"(*Interner).LookupBatch",
		"(*Interner).InternMiss",
		"(*B2BlockDecoder).resolveMSS",
	},
	ModulePath + "/internal/core": {
		"(*Analysis).addFileAccessID",
		"(*sums).addSums",
		"(*sums).appendJournal",
		"(*Partial).Observe",
		"(*b2Worker).observeBlock",
		"(*Analysis).masterID",
	},
	ModulePath + "/internal/serve": {
		"(*ingestScratch).resolve",
	},
	ModulePath + "/internal/migration": {
		"(*Cache).Step",
		"(*ARC).FileAccessed",
		"(*ARC).FileEvicted",
		"(*LRUK).FileAccessed",
		"(*GreedyDual).FileAccessed",
		"(*GreedyDual).FileEvicted",
		"(*AdaptiveSTP).FileAccessed",
	},
}

func runHotAlloc(p *Pass) {
	if !InModule(p.Path) {
		return
	}
	annotated := map[string]bool{}
	for _, f := range p.Files {
		for _, fd := range enclosingFuncs(f) {
			if hasDirective(fd, hotpathDirective) {
				annotated[funcKey(fd)] = true
				checkHotBody(p, fd)
			}
		}
	}
	for _, want := range requiredHotpath[p.Path] {
		if !annotated[want] {
			pos := token.NoPos
			var found *ast.FuncDecl
			for _, f := range p.Files {
				for _, fd := range enclosingFuncs(f) {
					if funcKey(fd) == want {
						found = fd
					}
				}
				if pos == token.NoPos {
					pos = f.Package
				}
			}
			if found != nil {
				p.Reportf(found.Pos(), "%s is a proven hot path and must be annotated %s",
					want, hotpathDirective)
			} else {
				p.Reportf(pos, "required hot-path function %s.%s not found; "+
					"update requiredHotpath in internal/lint/hotalloc.go if it moved", p.Path, want)
			}
		}
	}
}

// hasDirective reports whether fd's doc group carries the directive.
func hasDirective(fd *ast.FuncDecl, directive string) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}

// checkHotBody walks one annotated function and reports allocating
// constructs outside error-return statements.
func checkHotBody(p *Pass, fd *ast.FuncDecl) {
	errReturns := errorReturnRanges(p, fd)
	inErrReturn := func(pos token.Pos) bool {
		for _, r := range errReturns {
			if pos >= r[0] && pos <= r[1] {
				return true
			}
		}
		return false
	}
	report := func(pos token.Pos, format string, args ...any) {
		if !inErrReturn(pos) {
			p.Reportf(pos, format, args...)
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			checkHotCall(p, x, report)
		case *ast.BinaryExpr:
			if x.Op == token.ADD && isStringType(p, x) && !isConstant(p, x) {
				report(x.OpPos, "hot path: string concatenation allocates; "+
					"build into a reused []byte or precompute")
			}
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok && isMapIndex(p, ix) {
					report(lhs.Pos(), "hot path: map insert may allocate or rehash; "+
						"use a dense slice arena keyed by interned ID")
				}
			}
		case *ast.IncDecStmt:
			if ix, ok := x.X.(*ast.IndexExpr); ok && isMapIndex(p, ix) {
				report(x.Pos(), "hot path: map insert may allocate or rehash; "+
					"use a dense slice arena keyed by interned ID")
			}
		case *ast.FuncLit:
			report(x.Pos(), "hot path: closure may capture and allocate; hoist it out of the hot function")
			return false
		case *ast.CompositeLit:
			if tv, ok := p.Info.Types[x]; ok {
				switch tv.Type.Underlying().(type) {
				case *types.Map, *types.Slice:
					report(x.Pos(), "hot path: %s literal allocates; preallocate and reuse",
						kindName(tv.Type))
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := x.X.(*ast.CompositeLit); ok {
					report(x.Pos(), "hot path: &composite literal escapes to the heap; reuse a pooled value")
				}
			}
		}
		return true
	})
}

// checkHotCall flags allocating call forms: fmt.*, make, new, explicit
// interface conversions, and []byte->string conversions outside map-key
// position (where the compiler elides the copy).
func checkHotCall(p *Pass, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		if b, ok := p.Info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				report(call.Pos(), "hot path: %s allocates; hoist the allocation out of the per-record loop", b.Name())
			}
			return
		}
	case *ast.SelectorExpr:
		if obj := p.Info.Uses[fun.Sel]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() == "fmt" {
			report(call.Pos(), "hot path: fmt.%s boxes its arguments and allocates; "+
				"use strconv/append primitives or move formatting off the hot path", obj.Name())
			return
		}
	}
	// Conversions: T(x) where Fun denotes a type.
	if tv, ok := p.Info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		dst := tv.Type
		src := p.Info.Types[call.Args[0]].Type
		if src == nil {
			return
		}
		if types.IsInterface(dst.Underlying()) && !types.IsInterface(src.Underlying()) {
			report(call.Pos(), "hot path: conversion to interface boxes the value; keep concrete types")
			return
		}
		if isString(dst) && isByteSlice(src) && !inMapKeyPosition(p, call) {
			report(call.Pos(), "hot path: string([]byte) copies; intern or reuse the canonical string")
		}
	}
}

// errorReturnRanges returns the source ranges of return statements that
// construct an error (fmt.Errorf / errors.*) — the cold exits.
func errorReturnRanges(p *Pass, fd *ast.FuncDecl) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		erry := false
		ast.Inspect(ret, func(m ast.Node) bool {
			sel, ok := m.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if obj := p.Info.Uses[sel.Sel]; obj != nil && obj.Pkg() != nil {
				if pp := obj.Pkg().Path(); pp == "errors" || (pp == "fmt" && obj.Name() == "Errorf") {
					erry = true
				}
			}
			return !erry
		})
		if erry {
			out = append(out, [2]token.Pos{ret.Pos(), ret.End()})
		}
		return true
	})
	return out
}

// inMapKeyPosition reports whether e is the index operand of a map
// index expression — `m[string(b)]` — which the compiler performs
// without copying.
func inMapKeyPosition(p *Pass, e ast.Expr) bool {
	found := false
	for _, f := range p.Files {
		if f.Pos() <= e.Pos() && e.Pos() <= f.End() {
			ast.Inspect(f, func(n ast.Node) bool {
				ix, ok := n.(*ast.IndexExpr)
				if ok && ix.Index == e && isMapIndex(p, ix) {
					found = true
				}
				return !found
			})
		}
	}
	return found
}

// isMapIndex reports whether ix indexes a map.
func isMapIndex(p *Pass, ix *ast.IndexExpr) bool {
	tv, ok := p.Info.Types[ix.X]
	if !ok {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// isStringType reports whether e's static type is a string.
func isStringType(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && isString(tv.Type)
}

// isConstant reports whether e folded to a compile-time constant.
func isConstant(p *Pass, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// kindName names a map/slice type tersely for diagnostics.
func kindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Map:
		return "map"
	case *types.Slice:
		return "slice"
	}
	return t.String()
}
