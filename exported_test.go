package repro

// The exported-name guard: every exported name declared under internal/
// has a caller outside _test.go files in the root module or bench/, and
// every one under paper/internal/ has one in paper/. An exported symbol
// that only tests (or only the figures) call is code the engine maintains
// for no traffic; DESIGN.md §27 has the
// rule and the inventory it deleted. The guard uses go/parser and go/types
// only, so it needs no module download.

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// exportAllowList names what the guard keeps without a non-test caller,
// each with its reason. A key is a package path under internal/, then a
// name: "table.DecodedBlocks", "obs/history.Store.Sync"; a bare package
// path keeps the whole package. An entry whose name is gone, or has gained
// a non-test caller, is stale and fails the guard.
var exportAllowList = map[string]string{
	"table.DecodedBlocks":         "test seam: exec, core and root benchmarks count block decodes through it",
	"table.Table.DropZones":       "test seam: exec tests and root benchmarks compare zone-skipped scans with unpruned ones",
	"table.StrictChecks":          "test seam: core's plan-matrix suites make a decode of an unchecked persisted-sample column panic",
	"exec.PoolOutstanding":        "test seam: core tests and root benchmarks check the scratch pool drains",
	"obs.TraceSnapshot.Structure": "test seam: core's lifecycle test hashes every trace's span tree",
	"sql.MustParse":               "test seam: plan, exec and root tests build queries from literals",
	"workload.QuerySpec.SQL":      "test seam: core's trace integration test runs every generated query through the engine",

	"resample": "the §5.1 resampling strategies, kept as the reference the kernel and exec tests check the fused and generic kernels against",

	"obs/history.Store.Sync": "durability: forces the history file to disk",

	"core.Engine.BuildStratifiedSample": "wired by ROADMAP item 2 (the sample catalog)",
	"stats.Moments.Merge":               "wired by ROADMAP item 5 (mergeable weighted sinks)",
}

// A scope is a package tree the guards check and the modules whose non-test
// files count as its callers.
type scope struct {
	prefix  string
	callers []module
}

// guardScopes are the trees the guards check. A root internal/ name that
// only paper/'s figures use is figure machinery the serving module carries,
// so paper/ counts as a caller only of its own internal/ (the experiments
// and the cluster cost model). bench/ declares everything in package main.
var guardScopes = []scope{
	{"repro/internal/", []module{{".", "repro"}, {"bench", "repro/bench"}}},
	{"repro/paper/internal/", []module{{".", "repro"}, {"paper", "repro/paper"}}},
}

// inScopes runs check over every scope and joins what it reports.
func inScopes(check func([]module, ...string) ([]export, error)) ([]export, error) {
	var out []export
	for _, sc := range guardScopes {
		got, err := check(sc.callers, sc.prefix)
		if err != nil {
			return nil, err
		}
		out = append(out, got...)
	}
	return out, nil
}

func TestEveryExportedNameHasACaller(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree")
	}
	exports, err := inScopes(checkExports)
	if err != nil {
		t.Fatal(err)
	}
	unused, stale := auditExports(exports, exportAllowList)
	for _, key := range stale {
		t.Errorf("stale allow-list entry %s: it is gone or has a non-test caller", key)
	}
	if len(unused) > 0 {
		t.Errorf("%d exported names have no caller outside _test.go files; delete them, make them test helpers, or allow-list them with a reason:\n%s",
			len(unused), strings.Join(unused, "\n"))
	}
}

// optionFieldAllowList names the exported option fields the guard keeps
// though no non-test file sets them, each with its reason, keyed as
// "watchdog.Config.Window". A stale entry fails the guard.
var optionFieldAllowList = map[string]string{
	"watchdog.Config.Window":             "test seam: core and alert tests size the window to a handful of audits",
	"watchdog.Config.MinAudits":          "test seam: core and alert tests let alerting engage after a handful of audits",
	"watchdog.Config.Tolerance":          "test seam: the alert pipeline test narrows the band its induced undercoverage leaves",
	"watchdog.Config.Synchronous":        "test seam: core and alert tests run audits inline to assert on their outcome",
	"obs/history.Options.SampleInterval": "test seam: core, wire and root tests stop the SLO sampler goroutine",
}

// TestEveryOptionFieldIsSet is the exported-name guard for option structs:
// every exported field of an exported *Config or *Options struct in a
// guarded tree is set by some non-test file of that tree's callers. A field
// nothing sets is a knob every deployment leaves at its default: make it a
// constant, or an unexported field its package's tests set.
func TestEveryOptionFieldIsSet(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole tree")
	}
	fields, err := inScopes(checkOptionFields)
	if err != nil {
		t.Fatal(err)
	}
	unset, stale := auditExports(fields, optionFieldAllowList)
	for _, key := range stale {
		t.Errorf("stale allow-list entry %s: it is gone or some non-test file sets it", key)
	}
	if len(unset) > 0 {
		t.Errorf("%d exported option fields are set by no non-test file; make them constants or unexported test fields, or allow-list them with a reason:\n%s",
			len(unset), strings.Join(unset, "\n"))
	}
}

// TestExportGuardOnFixture runs the checker over a module in testdata whose
// names cover each rule once, then audits it against an allow-list with one
// live entry and two stale ones.
func TestExportGuardOnFixture(t *testing.T) {
	exports, err := checkExports([]module{{filepath.Join("testdata", "exportguard"), "guard"}}, "guard/internal/")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, e := range exports {
		got[e.key] = e.used
	}
	want := map[string]bool{
		"lib.Orphan":           false, // no caller at all
		"lib.TestedOnly":       false, // its only caller is lib_test.go
		"lib.Recursive":        false, // it calls only itself
		"lib.Receiver":         false, // only its own method's receiver names it
		"lib.Receiver.Method":  false, // no caller
		"lib.Greeter":          true,  // the app names it
		"lib.Greeter.String":   true,  // reached only through fmt.Stringer
		"lib.Greeter.Greet":    true,  // reached only through the package's own interface
		"lib.Hello":            true,  // the app calls it
		"lib.Internal":         true,  // used only inside its own package
		"lib.Limit":            true,  // a constant the app reads
		"lib.Max":              true,  // generic, called only through an inferred instantiation
		"lib.Pair":             true,  // generic type, named only as Pair[string]
		"lib.Pair.First":       true,  // a method of an instantiated generic type
		"lib.Options":          true,  // the app sets its fields
		"lib.PositionalConfig": true,  // the app builds one
		"lib.Settings":         true,  // the app builds one
	}
	if !maps.Equal(got, want) {
		t.Errorf("used by name:\n got %v\nwant %v", got, want)
	}

	unused, stale := auditExports(exports, map[string]string{
		"lib.Orphan": "kept",
		"lib.Hello":  "stale: the app calls it",
		"lib.Gone":   "stale: no such name",
	})
	if len(unused) != 4 {
		t.Errorf("unused = %q, want the 4 unreferenced names but Orphan", unused)
	}
	if !slices.Equal(stale, []string{"lib.Gone", "lib.Hello"}) {
		t.Errorf("stale = %q, want [lib.Gone lib.Hello]", stale)
	}
}

// TestOptionFieldGuardOnFixture runs the option-field checker over the same
// fixture, whose option structs cover each way of setting a field once.
func TestOptionFieldGuardOnFixture(t *testing.T) {
	fields, err := checkOptionFields([]module{{filepath.Join("testdata", "exportguard"), "guard"}}, "guard/internal/")
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, f := range fields {
		got[f.key] = f.used
	}
	want := map[string]bool{
		"lib.Options.Keyed":       true,  // a composite-literal key
		"lib.Options.Assigned":    true,  // the left of an assignment
		"lib.Options.Incremented": true,  // an increment
		"lib.Options.Unset":       false, // nothing sets it
		"lib.Options.TestSet":     false, // only lib_test.go sets it
		"lib.PositionalConfig.A":  true,  // a literal without keys
		"lib.PositionalConfig.B":  true,
	}
	if !maps.Equal(got, want) {
		t.Errorf("set by non-test code:\n got %v\nwant %v", got, want)
	}
}

// auditExports returns the unreferenced names allow neither names nor
// covers by package, as "file:line key", and allow's stale keys, sorted.
func auditExports(exports []export, allow map[string]string) (unused, stale []string) {
	needed := map[string]bool{} // allow-list key → some name it keeps has no caller
	for _, e := range exports {
		pkg, _, _ := strings.Cut(e.key, ".")
		if _, ok := allow[e.key]; ok {
			needed[e.key] = !e.used
		} else if _, ok := allow[pkg]; ok {
			needed[pkg] = needed[pkg] || !e.used
		} else if !e.used {
			unused = append(unused, fmt.Sprintf("%s:%d %s", e.pos.Filename, e.pos.Line, e.key))
		}
	}
	for key := range allow {
		if !needed[key] {
			stale = append(stale, key)
		}
	}
	sort.Strings(stale)
	return unused, stale
}

// A module is a directory tree of packages and the import path of its root.
type module struct{ dir, path string }

// An export is one exported name declared under a checked prefix.
type export struct {
	key  string // package path under its prefix, then the name
	pos  token.Position
	used bool // some non-test file references it outside its own declaration
}

// checkExports type-checks the non-test files of every package in mods and
// reports each exported package-level func, type, var, const and method
// declared in a package whose import path starts with one of prefixes.
func checkExports(mods []module, prefixes ...string) ([]export, error) {
	l, paths, err := loadTree(mods)
	if err != nil {
		return nil, err
	}

	// Every exported declaration under prefixes, with its extent.
	type decl struct {
		export
		obj      types.Object
		from, to token.Pos
	}
	var decls []*decl
	byObj := map[types.Object]*decl{}
	receivers := map[*ast.Ident]bool{} // receiver type names: a method does not keep its type alive
	add := func(pkg string, id *ast.Ident, name string, from, to token.Pos) {
		obj := l.info.Defs[id] // nil for the blank identifier
		if obj == nil || !ast.IsExported(obj.Name()) {
			return
		}
		d := &decl{export{key: pkg + "." + name, pos: l.fset.Position(obj.Pos())}, obj, from, to}
		decls = append(decls, d)
		byObj[obj] = d
	}
	for _, path := range paths {
		pkg, ok := underPrefix(path, prefixes)
		if !ok {
			continue
		}
		for _, f := range l.files[path] {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					name := d.Name.Name
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receivers[id] = true
							}
							return true
						})
						recv := receiverNamed(l.info.Defs[d.Name].Type().(*types.Signature).Recv().Type()).Obj().Name()
						if !ast.IsExported(recv) {
							continue
						}
						name = recv + "." + name
					}
					add(pkg, d.Name, name, d.Pos(), d.End())
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							add(pkg, s.Name, s.Name.Name, s.Pos(), s.End())
						case *ast.ValueSpec:
							for _, n := range s.Names {
								add(pkg, n, n.Name, s.Pos(), s.End())
							}
						}
					}
				}
			}
		}
	}

	for id, obj := range l.info.Uses {
		if receivers[id] {
			continue
		}
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if d, ok := byObj[obj]; ok && (id.Pos() < d.from || id.Pos() >= d.to) {
			d.used = true
		}
	}

	// A method that implements a method of some interface is reached
	// through it: fmt.Stringer, http.Handler, or one of the tree's own.
	ifaces := l.interfaces()
	for _, d := range decls {
		m, ok := d.obj.(*types.Func)
		if !ok || d.used {
			continue
		}
		recv := m.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		named := receiverNamed(recv.Type())
		if named == nil || named.TypeParams().Len() > 0 {
			continue
		}
		for _, iface := range ifaces {
			if !hasMethod(iface, m.Name()) {
				continue
			}
			if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
				d.used = true
				break
			}
		}
	}

	out := make([]export, len(decls))
	for i, d := range decls {
		out[i] = d.export
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out, nil
}

// checkOptionFields reports each exported field of every exported struct
// type named *Config or *Options declared in a package whose import path
// starts with one of prefixes. A field is used when some non-test file sets it: as a
// composite-literal key, by position, or on the left of an assignment or
// an increment.
func checkOptionFields(mods []module, prefixes ...string) ([]export, error) {
	l, paths, err := loadTree(mods)
	if err != nil {
		return nil, err
	}
	var out []*export
	fields := map[*types.Var]*export{}
	for _, path := range paths {
		pkg, ok := underPrefix(path, prefixes)
		if !ok {
			continue
		}
		scope := l.pkgs[path].Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() ||
				!strings.HasSuffix(name, "Config") && !strings.HasSuffix(name, "Options") {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					e := &export{key: pkg + "." + name + "." + f.Name(), pos: l.fset.Position(f.Pos())}
					out = append(out, e)
					fields[f] = e
				}
			}
		}
	}
	set := func(obj types.Object) {
		if v, ok := obj.(*types.Var); ok && fields[v.Origin()] != nil {
			fields[v.Origin()].used = true
		}
	}
	setSelected := func(x ast.Expr) {
		if sel, ok := x.(*ast.SelectorExpr); ok {
			set(l.info.Uses[sel.Sel])
		}
	}
	for _, path := range paths {
		for _, f := range l.files[path] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					st, ok := l.info.Types[n].Type.Underlying().(*types.Struct)
					for i, elt := range n.Elts {
						if kv, isKV := elt.(*ast.KeyValueExpr); isKV {
							if id, isID := kv.Key.(*ast.Ident); isID {
								set(l.info.Uses[id])
							}
						} else if ok {
							set(st.Field(i))
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						setSelected(lhs)
					}
				case *ast.IncDecStmt:
					setSelected(n.X)
				}
				return true
			})
		}
	}
	res := make([]export, len(out))
	for i, e := range out {
		res[i] = *e
	}
	return res, nil
}

// underPrefix returns path with the first of prefixes it starts with cut
// off, and whether it starts with any.
func underPrefix(path string, prefixes []string) (string, bool) {
	for _, p := range prefixes {
		if rel, ok := strings.CutPrefix(path, p); ok {
			return rel, true
		}
	}
	return "", false
}

// loadTree type-checks the non-test files of every package in mods and
// returns the loader and the packages' import paths, sorted.
func loadTree(mods []module) (*loader, []string, error) {
	l := &loader{
		fset:  token.NewFileSet(),
		dirs:  map[string]string{},
		pkgs:  map[string]*types.Package{},
		std:   importer.Default(),
		files: map[string][]*ast.File{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	for _, m := range mods {
		if err := l.walk(m); err != nil {
			return nil, nil, err
		}
	}
	paths := make([]string, 0, len(l.dirs))
	for path := range l.dirs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return nil, nil, err
		}
	}
	return l, paths, nil
}

// A loader type-checks a tree's packages from source and the standard
// library from export data.
type loader struct {
	fset  *token.FileSet
	dirs  map[string]string // import path → directory
	pkgs  map[string]*types.Package
	files map[string][]*ast.File
	std   types.Importer
	info  *types.Info // shared by every package of the tree
}

// walk records the directory of every package under m, skipping nested
// modules, testdata and hidden directories.
func (l *loader) walk(m module) error {
	return filepath.WalkDir(m.dir, func(dir string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		if dir != m.dir {
			name := e.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		rel, err := filepath.Rel(m.dir, dir)
		if err != nil {
			return err
		}
		path := m.path
		if rel != "." {
			path += "/" + filepath.ToSlash(rel)
		}
		l.dirs[path] = dir
		return nil
	})
}

func (l *loader) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	dir, ok := l.dirs[path]
	if !ok {
		return l.std.Import(path)
	}
	bp, err := build.Default.ImportDir(dir, 0)
	var none *build.NoGoError
	if errors.As(err, &none) {
		return types.NewPackage(path, filepath.Base(dir)), nil
	} else if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[path] = pkg, files
	return pkg, nil
}

// interfaces returns every interface with methods that the tree declares or
// spells out, and every one declared by a package it imports, directly or not.
func (l *loader) interfaces() []*types.Interface {
	var out []*types.Interface
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() == 0 {
					if iface, ok := named.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
						out = append(out, iface)
					}
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range l.pkgs {
		visit(p)
	}
	for _, tv := range l.info.Types {
		if iface, ok := tv.Type.(*types.Interface); ok && iface.NumMethods() > 0 {
			out = append(out, iface)
		}
	}
	out = append(out, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	return out
}

func hasMethod(iface *types.Interface, name string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == name {
			return true
		}
	}
	return false
}

func receiverNamed(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}
