package filemig

import (
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
)

// The reachability guard: every declaration in a non-test file under
// internal/ must be reachable from a command. Its roots are the main and
// init of every package under cmd/ and examples/, the exported API of the
// root package, every package-level var initialiser and init function,
// every name the benchmark module (benchmark/*.go) uses, and
// reachAllowlist. Its edges are the type checker's uses inside reachable
// declarations, the benchmark module's included (it is type-checked with
// its tests); a method is also reachable when its receiver type is and it
// implements an interface method — one the module mentions, or any named
// interface of the standard library packages it loads. Every rule errs
// toward "reachable": a false keep costs a few dead lines, a false "dead"
// would delete live code.

// reachAllowlist holds the declarations kept although no command reaches
// them, each with its reason. Only two kinds belong here: a paper
// artefact that a named test or benchmark reproduces, and the dist/chaos
// fault-injection harness. A key is "pkg.Name", "pkg.(*T).M" or a whole
// package, "pkg".
var reachAllowlist = map[string]string{
	"device.StripeCrossover":         "§2.2 striping crossover: go test -run TestStripeCrossover ./internal/device; go test -bench TapeStriping -run '^$' .",
	"device.Striped":                 "§2.2 striped tape device: go test -run 'TestStriped|TestStripeCrossover' ./internal/device",
	"device.HierarchyInvariant":      "Figure 1 storage pyramid: go test -run TestHierarchyInvariant ./internal/device; go test -bench Figure1Pyramid -run '^$' .",
	"mss.CutThroughReport":           "§5.1.1 cut-through: go test -run TestCutThrough ./internal/mss; go test -run TestCutThroughOnRealTrace .; go test -bench CutThrough -run '^$' .",
	"mss.(CutThroughResult).Speedup": "§5.1.1 cut-through speedup, the figure TestCutThroughReport and BenchmarkCutThrough read",
	"migration.PlacementSweep":       "§3.1 placement threshold: go test -run TestPlacementSweep ./internal/migration; go test -bench PlacementThresholdSweep -run '^$' .",
	"trace.ConvertRawLog":            "§4.1 raw MSS log converter: go test -run 'TestRawLog|TestConvertRawLog' ./internal/trace; go test -run TestRawLogPipeline .",
	"chaos":                          "fault-injecting transport of the dist recovery tests: go test -run 'TestChaosGridReproducesGolden|TestCoordinatorCrashResume' ./internal/dist",
}

// reachBenchmarkOnly is the exact set of declarations that only the
// benchmark module reaches: moving its probes off them would free these.
var reachBenchmarkOnly = []string{
	"core.AccumulatePartial",
	"core.AnalyzeB2",
	"core.B2Options",
	"core.NewAccumulator",
	"migration.NewFutureIndex",
	"serve.(*Server).EncodeCheckpoint",
	"serve.(*Server).Ingest",
	"serve.(*Server).RestoreCheckpoint",
	"serve.CheckpointHeader",
	"serve.DecodeIngest",
	"serve.DecodeIngestFrame",
	"trace.(*B2BlockDecoder).Decode",
	"trace.(*B2File).Stream",
	"trace.(*b2ParallelStream).Next",
	"trace.WriteAllFormat",
	"trace.b2ParallelStream",
}

// reachUnit is one top-level declaration: a function, a method, a type
// spec, a var spec, or a const spec (a whole iota group is one unit, so
// no value of a counted enumeration is reported alone).
type reachUnit struct {
	key      string
	short    string // the package's name, as keys spell it
	pkg      *reachPkg
	init     []ast.Expr // a var spec's initialisers, walked as roots
	node     ast.Node   // what is walked when the unit is reached
	recv     *types.TypeName
	method   *types.Func
	internal bool
	lines    int
}

// reachPkg is one type-checked package of the module.
type reachPkg struct {
	path, rel, name string
	files           []*ast.File
	types           *types.Package
	info            *types.Info
}

// reachProgram is a module parsed and type-checked from source.
type reachProgram struct {
	fset    *token.FileSet
	dir     string
	mod     string
	std     types.Importer
	pkgs    map[string]*reachPkg
	units   []*reachUnit
	byObj   map[types.Object]*reachUnit
	methods map[*types.TypeName][]*reachUnit
	stdIfc  []*types.Interface
	bench   *reachPkg
}

// loadReach parses and type-checks every package of the module at dir
// whose import path is mod, skipping testdata and hidden directories,
// and then the nested benchmark module's one package, tests included.
func loadReach(dir, mod string) (*reachProgram, error) {
	p := &reachProgram{
		fset:    token.NewFileSet(),
		dir:     dir,
		mod:     mod,
		pkgs:    map[string]*reachPkg{},
		byObj:   map[types.Object]*reachUnit{},
		methods: map[*types.TypeName][]*reachUnit{},
	}
	p.std = importer.ForCompiler(p.fset, "source", nil)
	var rels []string
	err := filepath.WalkDir(dir, func(file string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		rel, _ := filepath.Rel(dir, file)
		base := d.Name()
		if rel != "." && (base == "testdata" || rel == "benchmark" ||
			strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_")) {
			return filepath.SkipDir
		}
		rels = append(rels, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, rel := range rels {
		ip := mod
		if rel != "." {
			ip = mod + "/" + rel
		}
		if _, err := p.Import(ip); err != nil && !errors.Is(err, errNoGoFiles) {
			return nil, err
		}
	}
	if p.bench, err = p.check(mod+"/benchmark", "benchmark", true); err != nil {
		return nil, err
	}
	p.collectStdInterfaces()
	return p, nil
}

// parseDir parses a directory's .go files, its _test.go files too when
// tests is set.
func (p *reachProgram) parseDir(dir string, tests bool) ([]*ast.File, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || (!tests && strings.HasSuffix(n, "_test.go")) {
			continue
		}
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Import type-checks a module package from source, keeping its
// types.Info; any other import goes to the standard library importer.
func (p *reachProgram) Import(ip string) (*types.Package, error) {
	if ip != p.mod && !strings.HasPrefix(ip, p.mod+"/") {
		return p.std.Import(ip)
	}
	if pkg, ok := p.pkgs[ip]; ok {
		if pkg.types == nil {
			return nil, fmt.Errorf("import cycle through %s", ip)
		}
		return pkg.types, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(ip, p.mod), "/")
	if rel == "" {
		rel = "."
	}
	pkg, err := p.check(ip, rel, false)
	if err != nil {
		return nil, err
	}
	return pkg.types, nil
}

var errNoGoFiles = errors.New("no Go files")

// check parses and type-checks the package in directory rel, its test
// files too when tests is set, and records its declarations.
func (p *reachProgram) check(ip, rel string, tests bool) (*reachPkg, error) {
	files, err := p.parseDir(filepath.Join(p.dir, filepath.FromSlash(rel)), tests)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: %w", ip, errNoGoFiles)
	}
	pkg := &reachPkg{path: ip, rel: rel, name: files[0].Name.Name, files: files}
	p.pkgs[ip] = pkg
	pkg.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: p}
	if pkg.types, err = conf.Check(ip, p.fset, files, pkg.info); err != nil {
		return nil, err
	}
	p.declare(pkg)
	return pkg, nil
}

// declare records pkg's top-level declarations as units.
func (p *reachProgram) declare(pkg *reachPkg) {
	short := path.Base(pkg.path)
	if pkg.rel == "." {
		short = pkg.name
	}
	internal := strings.HasPrefix(pkg.rel, "internal/")
	add := func(key string, node ast.Node, objs ...types.Object) *reachUnit {
		u := &reachUnit{
			key:      short + "." + key,
			short:    short,
			pkg:      pkg,
			node:     node,
			internal: internal,
			lines:    p.fset.Position(node.End()).Line - p.fset.Position(node.Pos()).Line + 1,
		}
		for _, o := range objs {
			if o != nil {
				p.byObj[o] = u
			}
		}
		p.units = append(p.units, u)
		return u
	}
	for _, f := range pkg.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn, _ := pkg.info.Defs[d.Name].(*types.Func)
				if d.Recv == nil {
					add(d.Name.Name, d, fn)
					continue
				}
				rt := fn.Signature().Recv().Type()
				star := ""
				if ptr, ok := rt.(*types.Pointer); ok {
					rt, star = ptr.Elem(), "*"
				}
				tn := types.Unalias(rt).(*types.Named).Obj()
				u := add(fmt.Sprintf("(%s%s).%s", star, tn.Name(), d.Name.Name), d, fn)
				u.recv, u.method = tn, fn
				p.methods[tn] = append(p.methods[tn], u)
			case *ast.GenDecl:
				p.declareGen(pkg, d, add)
			}
		}
	}
}

// declareGen records the units of one type, var or const declaration.
func (p *reachProgram) declareGen(pkg *reachPkg, d *ast.GenDecl, add func(string, ast.Node, ...types.Object) *reachUnit) {
	if d.Tok == token.IMPORT {
		return
	}
	if d.Tok == token.CONST && d.Lparen.IsValid() && constGroupCounts(d) {
		var objs []types.Object
		for _, s := range d.Specs {
			for _, n := range s.(*ast.ValueSpec).Names {
				objs = append(objs, pkg.info.Defs[n])
			}
		}
		add(d.Specs[0].(*ast.ValueSpec).Names[0].Name, d, objs...)
		return
	}
	for _, s := range d.Specs {
		switch s := s.(type) {
		case *ast.TypeSpec:
			add(s.Name.Name, s, pkg.info.Defs[s.Name])
		case *ast.ValueSpec:
			var objs []types.Object
			for _, n := range s.Names {
				if n.Name != "_" {
					objs = append(objs, pkg.info.Defs[n])
				}
			}
			if len(objs) > 0 {
				u := add(objs[0].Name(), s, objs...)
				if d.Tok == token.VAR {
					u.init = s.Values
				}
			} else if d.Tok == token.VAR {
				add("_", s).init = s.Values
			}
		}
	}
}

// constGroupCounts reports whether a parenthesised const group counts
// with iota or repeats an implicit value, so that its values stand or
// fall together.
func constGroupCounts(d *ast.GenDecl) bool {
	counts := false
	for _, s := range d.Specs {
		vs := s.(*ast.ValueSpec)
		if len(vs.Values) == 0 {
			counts = true
		}
		for _, v := range vs.Values {
			ast.Inspect(v, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
					counts = true
				}
				return true
			})
		}
	}
	return counts
}

// collectStdInterfaces gathers every named interface of every standard
// library package the module loads, plus the anonymous interfaces the
// standard library asserts to: those dispatch into module methods
// without the module ever naming them.
func (p *reachProgram) collectStdInterfaces() {
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		if _, ours := p.pkgs[tp.Path()]; !ours {
			scope := tp.Scope()
			for _, n := range scope.Names() {
				if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						p.stdIfc = append(p.stdIfc, it)
					}
				}
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range p.pkgs {
		visit(pkg.types)
	}
	errT := types.Universe.Lookup("error").Type()
	boolT := types.Typ[types.Bool]
	anyT := types.Universe.Lookup("any").Type()
	sig := func(params []types.Type, results ...types.Type) *types.Signature {
		vars := func(ts []types.Type) *types.Tuple {
			var vs []*types.Var
			for _, t := range ts {
				vs = append(vs, types.NewParam(token.NoPos, nil, "", t))
			}
			return types.NewTuple(vs...)
		}
		return types.NewSignatureType(nil, nil, nil, vars(params), vars(results), false)
	}
	anon := []*types.Func{
		types.NewFunc(token.NoPos, nil, "Unwrap", sig(nil, errT)),
		types.NewFunc(token.NoPos, nil, "Unwrap", sig(nil, types.NewSlice(errT))),
		types.NewFunc(token.NoPos, nil, "Is", sig([]types.Type{errT}, boolT)),
		types.NewFunc(token.NoPos, nil, "As", sig([]types.Type{anyT}, boolT)),
		types.NewFunc(token.NoPos, nil, "Timeout", sig(nil, boolT)),
		types.NewFunc(token.NoPos, nil, "Temporary", sig(nil, boolT)),
	}
	p.stdIfc = append(p.stdIfc, types.NewInterfaceType(anon, nil))
}

// reach walks the program from its roots and returns the reached units.
// The benchmark module's names are roots only when bench is set; the
// declarations allow names (see reachAllowlist) are roots too.
func (p *reachProgram) reach(bench bool, allow map[string]string) map[*reachUnit]bool {
	r := &reacher{p: p, seen: map[*reachUnit]bool{},
		ifcSeen: map[*types.Interface]bool{}, ifc: map[string][]*types.Signature{}}
	for _, it := range p.stdIfc {
		r.addInterface(it)
	}
	var roots []*reachUnit
	for _, u := range p.units {
		if u.pkg == p.bench && !bench {
			continue
		}
		if u.pkg == p.bench || r.isRoot(u) {
			roots = append(roots, u)
		}
	}
	for key := range allow {
		roots = append(roots, p.named(key)...)
	}
	for _, u := range roots {
		r.mark(u)
	}
	for _, u := range p.units {
		if u.pkg == p.bench && !bench {
			continue
		}
		for _, e := range u.init {
			r.walk(u.pkg, e)
		}
	}
	r.run()
	return r.seen
}

// named returns the units an allowlist key names: one declaration, or
// every declaration of a package.
func (p *reachProgram) named(key string) []*reachUnit {
	var out []*reachUnit
	for _, u := range p.units {
		if u.key == key || u.short == key {
			out = append(out, u)
		}
	}
	return out
}

// reacher is one walk of a reachProgram from its roots.
type reacher struct {
	p       *reachProgram
	seen    map[*reachUnit]bool
	queue   []*reachUnit
	ifcSeen map[*types.Interface]bool
	ifc     map[string][]*types.Signature // reached interfaces' methods by name
}

// isRoot reports whether u is a root by its own kind and package.
func (r *reacher) isRoot(u *reachUnit) bool {
	rel := u.pkg.rel
	switch n := u.node.(type) {
	case *ast.FuncDecl:
		if n.Recv == nil && n.Name.Name == "init" {
			return true
		}
		if n.Recv == nil && n.Name.Name == "main" &&
			(strings.HasPrefix(rel, "cmd/") || strings.HasPrefix(rel, "examples/")) {
			return true
		}
		if rel == "." && n.Name.IsExported() {
			return n.Recv == nil || u.recv.Exported()
		}
	case *ast.TypeSpec:
		return rel == "." && n.Name.IsExported()
	case *ast.ValueSpec:
		return rel == "." && n.Names[0].IsExported()
	case *ast.GenDecl:
		return rel == "." && n.Specs[0].(*ast.ValueSpec).Names[0].IsExported()
	}
	return false
}

// mark queues u for walking the first time it is reached.
func (r *reacher) mark(u *reachUnit) {
	if !r.seen[u] {
		r.seen[u] = true
		r.queue = append(r.queue, u)
	}
}

// addInterface records its methods as ones a reached type's method can
// implement.
func (r *reacher) addInterface(it *types.Interface) {
	if r.ifcSeen[it] {
		return
	}
	r.ifcSeen[it] = true
	for i := 0; i < it.NumMethods(); i++ {
		m := it.Method(i)
		r.ifc[m.Name()] = append(r.ifc[m.Name()], m.Signature())
	}
}

// implements reports whether method m matches a reached interface's
// method by name and signature (by name alone on a generic receiver).
func (r *reacher) implements(m *types.Func, generic bool) bool {
	for _, s := range r.ifc[m.Name()] {
		if generic || types.Identical(s, m.Signature()) {
			return true
		}
	}
	return false
}

// run drains the queue, then admits the methods of reached types that
// implement a reached interface, until nothing more is reached.
func (r *reacher) run() {
	for {
		for len(r.queue) > 0 {
			u := r.queue[len(r.queue)-1]
			r.queue = r.queue[:len(r.queue)-1]
			r.walk(u.pkg, u.node)
		}
		for tn, ms := range r.p.methods {
			if !r.seen[r.p.byObj[tn]] {
				continue
			}
			generic := tn.Type().(*types.Named).TypeParams().Len() > 0
			for _, m := range ms {
				if !r.seen[m] && r.implements(m.method, generic) {
					r.mark(m)
				}
			}
		}
		if len(r.queue) == 0 {
			return
		}
	}
}

// walk marks every unit that node uses and every interface it mentions.
func (r *reacher) walk(pkg *reachPkg, node ast.Node) {
	info := pkg.info
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			obj := info.Uses[n]
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			case *types.TypeName:
				if it, ok := o.Type().Underlying().(*types.Interface); ok {
					r.addInterface(it)
				}
			}
			if v := r.p.byObj[obj]; v != nil {
				r.mark(v)
			}
		case *ast.InterfaceType:
			if it, ok := info.Types[n].Type.(*types.Interface); ok {
				r.addInterface(it)
			}
		}
		return true
	})
}

// unreached lists the internal/ units that reached does not hold.
func (p *reachProgram) unreached(reached map[*reachUnit]bool) []*reachUnit {
	var out []*reachUnit
	for _, u := range p.units {
		if u.internal && !reached[u] {
			out = append(out, u)
		}
	}
	slices.SortFunc(out, func(a, b *reachUnit) int { return strings.Compare(a.key, b.key) })
	return out
}

var reachRepo = sync.OnceValues(func() (*reachProgram, error) { return loadReach(".", "filemig") })

// TestReachability fails on every internal/ declaration that no root
// reaches, and on every allowlist entry that is no longer needed.
func TestReachability(t *testing.T) {
	p, err := reachRepo()
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, u := range p.unreached(p.reach(true, reachAllowlist)) {
		pos := p.fset.Position(u.node.Pos())
		t.Errorf("%s:%d: %s (%d lines) is reachable from no command, benchmark or allowlist entry", pos.Filename, pos.Line, u.key, u.lines)
		total += u.lines
	}
	if total > 0 {
		t.Logf("%d unreached lines: delete them, move test-only helpers into _test.go files, or allowlist a paper artefact with its reason", total)
	}
	// Every allowlist entry must still be needed.
	without := p.reach(true, nil)
	for key := range reachAllowlist {
		units := p.named(key)
		if len(units) == 0 {
			t.Errorf("allowlist entry %s names no declaration", key)
		}
		needed := false
		for _, u := range units {
			needed = needed || !without[u]
		}
		if len(units) > 0 && !needed {
			t.Errorf("allowlist entry %s is reachable without it: remove the entry", key)
		}
	}
}

// TestReachabilityBenchmarkOnly pins the declarations that only the
// benchmark module reaches (reachBenchmarkOnly).
func TestReachabilityBenchmarkOnly(t *testing.T) {
	p, err := reachRepo()
	if err != nil {
		t.Fatal(err)
	}
	with, without := p.reach(true, reachAllowlist), p.reach(false, reachAllowlist)
	var got []string
	for _, u := range p.unreached(without) {
		if with[u] {
			got = append(got, u.key)
		}
	}
	if !slices.Equal(got, reachBenchmarkOnly) {
		t.Errorf("declarations only the benchmark module reaches:\n got %q\nwant %q", got, reachBenchmarkOnly)
	}
}

// TestReachabilityFixture runs the guard over testdata/reach, where
// exactly one declaration is dead: a reachable function, a method reached
// only through an interface and a function only the benchmark module
// calls must all be kept.
func TestReachabilityFixture(t *testing.T) {
	p, err := loadReach(filepath.Join("testdata", "reach"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	keys := func(us []*reachUnit) []string {
		var out []string
		for _, u := range us {
			out = append(out, u.key)
		}
		return out
	}
	if got, want := keys(p.unreached(p.reach(true, nil))), []string{"lib.Dead"}; !slices.Equal(got, want) {
		t.Errorf("unreached = %q, want %q", got, want)
	}
	if got, want := keys(p.unreached(p.reach(false, nil))), []string{"lib.BenchOnly", "lib.Dead"}; !slices.Equal(got, want) {
		t.Errorf("unreached without the benchmark module = %q, want %q", got, want)
	}
}
