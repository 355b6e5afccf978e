package spasm

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"

	"spasm/internal/report"
)

// TestRunSurface locks the exported run entrypoints of the façade and of
// internal/app.  There is one way to run a spec (Execute) and one way to
// run a Program (app.Execute); the façade's Run and RunProgram build a
// Program from their arguments, and RunSpecOn and RunSpecProfiled are
// what bench/ calls.  A new Run* variant fails this test: add a field to
// RunOptions / app.Options instead, or delete a wrapper first.
func TestRunSurface(t *testing.T) {
	for _, tc := range []struct {
		dir  string
		want []string
	}{
		{".", []string{"Execute", "Run", "RunProgram", "RunSpecOn", "RunSpecProfiled"}},
		{"internal/app", []string{"Execute"}},
	} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), tc.dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, pkg := range pkgs {
			for _, file := range pkg.Files {
				for _, decl := range file.Decls {
					fn, ok := decl.(*ast.FuncDecl)
					if !ok || fn.Recv != nil {
						continue
					}
					if name := fn.Name.Name; name == "Execute" || strings.HasPrefix(name, "Run") {
						got = append(got, name)
					}
				}
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s exports run entrypoints %v, want exactly %v", tc.dir, got, tc.want)
		}
	}
}

// TestCommandSurface locks the binary count: the experiment CLI is one
// binary with subcommands (cmd/spasm), beside the daemon.  A new
// experiment is a subcommand or a report.Studies entry, not a third main
// package.
func TestCommandSurface(t *testing.T) {
	entries, err := os.ReadDir("cmd")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if want := []string{"spasm", "spasmd"}; !reflect.DeepEqual(got, want) {
		t.Errorf("cmd/ holds %v, want exactly %v", got, want)
	}
}

// TestOneBenchmarkSystem: the repo is measured by bench/ (BENCHMARK.json,
// README "Measuring") and gated by tier-1 budgets such as run1024's.
// Outside bench/ there is no recorded go-test baseline and no Benchmark
// function except the two kernel fast paths no layer metric reaches.  A
// new measurement is a layer metric in a [benchmark] PR, not a second
// `go test -bench` suite.
func TestOneBenchmarkSystem(t *testing.T) {
	allowed := map[string]bool{
		"internal/sim.BenchmarkEventDispatch": true, // self-dispatch: no coroutine switch
		"internal/sim.BenchmarkDefer":         true, // lazy clock: no event
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == "bench") {
				return filepath.SkipDir
			}
			return nil
		}
		if name != "BENCHMARK.json" && strings.HasPrefix(name, "BENCH") && strings.HasSuffix(name, ".json") {
			t.Errorf("%s: recorded baselines belong to bench/ (--record / --compare)", path)
		}
		if !strings.HasSuffix(name, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !strings.HasPrefix(fn.Name.Name, "Benchmark") {
				continue
			}
			id := filepath.ToSlash(filepath.Dir(path)) + "." + fn.Name.Name
			if !allowed[id] {
				t.Errorf("%s declares %s: make it a bench/ layer metric", path, fn.Name.Name)
			}
			delete(allowed, id)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := range allowed {
		t.Errorf("%s is gone: drop it from the allow-list", id)
	}
}

// TestCIRunPatternsMatch: `go test -run X` passes with only a warning
// when X matches no test, so a CI step naming a renamed or deleted test
// silently checks nothing.  Every alternative of every -run and -fuzz
// pattern in the workflow must match a Test or Fuzz function of the
// packages its line names.
func TestCIRunPatternsMatch(t *testing.T) {
	ci, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	flagRE := regexp.MustCompile(`-(run|fuzz)[ =]('[^']*'|\S+)`)
	checked := 0
	for n, line := range strings.Split(string(ci), "\n") {
		_, cmd, ok := strings.Cut(line, "go test ")
		if !ok || strings.HasPrefix(strings.TrimSpace(line), "#") {
			continue
		}
		var pkgs, names []string
		for _, arg := range strings.Fields(cmd) {
			if arg == "." || strings.HasPrefix(arg, "./") {
				pkgs = append(pkgs, arg)
				names = append(names, testFuncs(t, arg)...)
			}
		}
		for _, m := range flagRE.FindAllStringSubmatch(cmd, -1) {
			pattern := strings.Trim(m[2], "'")
			if pattern == "^$" {
				continue // -run '^$' beside -fuzz: no unit test, on purpose
			}
			for _, alt := range alternatives(pattern) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: -%s %q: %v", n+1, m[1], pattern, err)
					continue
				}
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("ci.yml:%d: -%s alternative %q matches no test in %v", n+1, m[1], alt, pkgs)
				}
				checked++
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -fuzz pattern in ci.yml")
	}
}

// alternatives splits a regexp at its top-level |.
func alternatives(re string) []string {
	var out []string
	depth, start := 0, 0
	for i := 0; i < len(re); i++ {
		switch re[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case '|':
			if depth == 0 {
				out, start = append(out, re[start:i]), i+1
			}
		}
	}
	return append(out, re[start:])
}

// testFuncs lists the Test and Fuzz functions of the packages a go test
// argument names: ".", "./internal/sim/" or "./internal/service/...".
func testFuncs(t *testing.T, arg string) []string {
	t.Helper()
	dir, recursive := strings.CutSuffix(strings.TrimSuffix(arg, "/"), "/...")
	var names []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && (!recursive || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				names = append(names, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// TestStudyRegistry: "spasm study" selects by name and prints Name and
// Claim as its usage text, so names must be unique and both set; README's
// study table is the one prose listing and must name each.
func TestStudyRegistry(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{"all": true, "batch": true} // reserved by the CLI
	for _, s := range report.Studies() {
		if !strings.Contains(string(readme), "| `"+s.Name+"` |") {
			t.Errorf("study %q is missing from README.md's study table", s.Name)
		}
		if s.Name == "" || s.Claim == "" {
			t.Errorf("study %+v: Name and Claim are both required", s)
		}
		if seen[s.Name] {
			t.Errorf("study name %q is taken", s.Name)
		}
		seen[s.Name] = true
	}
}

// TestEveryExportHasACaller: every exported name in internal/ is used by
// non-test code somewhere: the module, bench/ (its own module, whose
// replace points here), cmd/ or examples/.  A name only tests reach is
// production code without a production caller; delete it, or move it
// into its package's _test.go when a test needs it as a fixture or a
// reference.  The check type-checks, so Queue.Remove and list.Remove are
// different names.  A method that satisfies an interface counts as used:
// the interface's caller reaches it.
func TestEveryExportHasACaller(t *testing.T) {
	allowed := map[string]string{
		"machine.Conformance":        "test oracle",
		"machine.NetworkConformance": "test oracle",
		"machine.CheckInvariants":    "test oracle",
		"faults.Set":                 "test-injection hook",
		"faults.Reset":               "test-injection hook",
		"flow.Net.Topology":          "ROADMAP 1(b) deletes the flow tier",
	}
	m := loadModule(t)
	for _, id := range m.unused("spasm/internal/") {
		if _, ok := allowed[id]; ok {
			delete(allowed, id)
			continue
		}
		t.Errorf("internal/%s has no non-test caller", id)
	}
	for id := range allowed {
		t.Errorf("%s has a caller or is gone: drop it from the allow-list", id)
	}
}

// TestEveryInterfaceMethodHasACaller: every method of every interface the
// module's non-test code declares is called through that interface by
// non-test code (the module, bench/, cmd/ or examples/).  A method only
// concrete calls or tests reach makes every implementation carry it for no
// caller of the interface: cut it from the interface, and keep it as a
// concrete method only where non-test code calls it.  A method through
// which the interface satisfies a standard-library one (String, Error,
// Write) counts as called: the library calls it.
func TestEveryInterfaceMethodHasACaller(t *testing.T) {
	for _, id := range loadModule(t).uncalledInterfaceMethods() {
		t.Errorf("%s: no non-test code calls it through the interface", id)
	}
}

// uncalledInterfaceMethods lists, as "pkg.Interface.Method", the methods
// the module's named interfaces declare that no non-test code selects
// through an interface value, unless the interface implements a
// standard-library interface that declares the method too.
func (m *typedModule) uncalledInterfaceMethods() []string {
	called := map[types.Object]bool{}
	for _, obj := range m.info.Uses {
		called[obj] = true
	}
	declares := func(it *types.Interface, keep func(*types.Func) bool) bool {
		for i := 0; i < it.NumMethods(); i++ {
			if keep(it.Method(i)) {
				return true
			}
		}
		return false
	}
	var std []*types.Interface
	for _, it := range m.interfaces() {
		if it.NumMethods() > 0 && !declares(it, func(fn *types.Func) bool {
			return fn.Pkg() != nil && m.pkgs[fn.Pkg().Path()] != nil
		}) {
			std = append(std, it)
		}
	}
	var out []string
	for ident, obj := range m.info.Defs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		it, ok := tn.Type().Underlying().(*types.Interface)
		if !ok {
			continue
		}
		for i := 0; i < it.NumExplicitMethods(); i++ {
			fn := it.ExplicitMethod(i)
			if called[fn] || slices.ContainsFunc(std, func(s *types.Interface) bool {
				return types.Implements(tn.Type(), s) && declares(s, func(sf *types.Func) bool {
					return sf.Name() == fn.Name()
				})
			}) {
				continue
			}
			out = append(out, tn.Pkg().Name()+"."+ident.Name+"."+fn.Name())
		}
	}
	sort.Strings(out)
	return out
}

// TestEveryOptionHasACaller: every exported field of an option struct (a
// type named *Config, *Options, *Opts, *Policy or *Control, and
// client.Client) is set by non-test code other than the type's own
// methods: a composite-literal key, an assignment, or an address taken
// (a flag bound to it).  A field only tests set is a knob whose value
// never varies outside them; make it a constant, or delete it.
func TestEveryOptionHasACaller(t *testing.T) {
	allowed := map[string]string{}
	m := loadModule(t)
	for _, id := range m.unsetOptions() {
		if _, ok := allowed[id]; ok {
			delete(allowed, id)
			continue
		}
		t.Errorf("%s: no non-test code sets this option", id)
	}
	for id := range allowed {
		t.Errorf("%s is set or gone: drop it from the allow-list", id)
	}
}

// optionType matches the names of option structs.
var optionType = regexp.MustCompile(`(Config|Options|Opts|Policy|Control)$`)

// unsetOptions lists, as "pkg.Type.Field", the exported fields of the
// module's option structs that no non-test code sets outside the type's
// own methods.
func (m *typedModule) unsetOptions() []string {
	owner := map[*types.Var]*types.TypeName{}
	for path, pkg := range m.pkgs {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || !optionType.MatchString(name) &&
				!(path == "spasm/internal/service/client" && name == "Client") {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						owner[f] = tn
					}
				}
			}
		}
	}
	set := map[*types.Var]bool{}
	for _, files := range m.files {
		for _, f := range files {
			for _, d := range f.Decls {
				var self *types.TypeName // the receiver's type, inside a method
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					self = receiverNamed(m.info.Defs[fd.Name]).Obj()
				}
				mark := func(obj types.Object) {
					if v, ok := obj.(*types.Var); ok && owner[v] != nil && owner[v] != self {
						set[v] = true
					}
				}
				markSel := func(e ast.Expr) {
					if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
						mark(m.info.Uses[sel.Sel])
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.CompositeLit:
						st, _ := m.info.Types[n].Type.Underlying().(*types.Struct)
						for i, el := range n.Elts {
							if kv, ok := el.(*ast.KeyValueExpr); ok {
								if key, ok := kv.Key.(*ast.Ident); ok {
									mark(m.info.Uses[key])
								}
							} else if st != nil {
								mark(st.Field(i))
							}
						}
					case *ast.AssignStmt:
						for _, lhs := range n.Lhs {
							markSel(lhs)
						}
					case *ast.IncDecStmt:
						markSel(n.X)
					case *ast.UnaryExpr:
						if n.Op == token.AND {
							markSel(n.X)
						}
					}
					return true
				})
			}
		}
	}
	var out []string
	for f, tn := range owner {
		if !set[f] {
			out = append(out, tn.Pkg().Name()+"."+tn.Name()+"."+f.Name())
		}
	}
	sort.Strings(out)
	return out
}

// TestSpecSurface locks what a run's description can say: the fields of
// Spec and, name for name, the wire fields of service.RunRequest (read
// from source — the service package imports this one).  Every field is
// an option that tests, the content address and the wire format must
// cover; a new knob has to edit this list.
func TestSpecSurface(t *testing.T) {
	want := []string{"App", "Scale", "Seed", "Machine", "Topology", "P", "PortMode", "Protocol", "Workers"}
	wantTags := []string{"app", "scale", "seed", "machine", "topology", "p", "port_mode", "protocol", "workers"}

	var got []string
	for i, rt := 0, reflect.TypeOf(Spec{}); i < rt.NumField(); i++ {
		got = append(got, rt.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Spec has fields %v, want exactly %v", got, want)
	}

	file, err := parser.ParseFile(token.NewFileSet(), filepath.Join("internal", "service", "api.go"), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var wire, tags []string
	ast.Inspect(file, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok || ts.Name.Name != "RunRequest" {
			return true
		}
		for _, f := range ts.Type.(*ast.StructType).Fields.List {
			tag, _ := strings.CutSuffix(reflect.StructTag(strings.Trim(f.Tag.Value, "`")).Get("json"), ",omitempty")
			for _, name := range f.Names {
				wire, tags = append(wire, name.Name), append(tags, tag)
			}
		}
		return false
	})
	if !reflect.DeepEqual(wire, want) || !reflect.DeepEqual(tags, wantTags) {
		t.Errorf("service.RunRequest has fields %v tagged %v, want exactly %v tagged %v", wire, tags, want, wantTags)
	}

	// A sweep says what it runs the same way: a point is an application
	// on a machine Config, and the session's options are the sweep, not
	// per-run knobs.  A machine knob is a Config field.
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(Options{}), []string{"Scale", "Procs", "Seed", "Machines", "Parallel", "Runner"}},
		{reflect.TypeOf(BatchPoint{}), []string{"App", "Config"}},
		{reflect.TypeOf(Config{}), []string{"Kind", "P", "Topology", "Cache", "L", "PortMode", "AdaptiveG", "LinkByteTime", "Protocol"}},
	} {
		var got []string
		for i := 0; i < tc.typ.NumField(); i++ {
			got = append(got, tc.typ.Field(i).Name)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%v has fields %v, want exactly %v", tc.typ, got, tc.want)
		}
	}
}

// typedModule is the module's non-test code, type-checked: every package
// under the repository root, bench/ included, with the standard library
// imported from source.
type typedModule struct {
	fset        *token.FileSet
	std         types.Importer
	info        *types.Info
	pkgs        map[string]*types.Package
	files       map[string][]*ast.File // by import path
	conventions *types.Package         // errorsConventions
}

func loadModule(t *testing.T) *typedModule {
	t.Helper()
	fset := token.NewFileSet()
	m := &typedModule{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
	f, err := parser.ParseFile(fset, "errors.go", errorsConventions, 0)
	if err != nil {
		t.Fatal(err)
	}
	if m.conventions, err = new(types.Config).Check("errors", fset, []*ast.File{f}, nil); err != nil {
		t.Fatal(err)
	}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
			return filepath.SkipDir
		}
		ip := "spasm"
		if path != "." {
			ip += "/" + filepath.ToSlash(path)
		}
		_, err = m.Import(ip)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// Import resolves spasm/... paths to the repository's directories and
// everything else to the standard library.
func (m *typedModule) Import(path string) (*types.Package, error) {
	if path != "spasm" && !strings.HasPrefix(path, "spasm/") {
		return m.std.Import(path)
	}
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	dir := "."
	if rel, ok := strings.CutPrefix(path, "spasm/"); ok {
		dir = filepath.FromSlash(rel)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return nil, err
			}
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, &build.NoGoError{Dir: dir}
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path], m.files[path] = pkg, files
	return pkg, nil
}

// unused lists the exported declarations of the packages under prefix
// that no non-test code uses, as "pkg.Name" or "pkg.Type.Method" with
// pkg relative to prefix.  A use inside the declaration itself (a
// recursive call, a method's own receiver) does not count.
func (m *typedModule) unused(prefix string) []string {
	type decl struct {
		id       string
		from, to token.Pos
	}
	decls := map[types.Object]decl{}
	receivers := map[*ast.Ident]bool{}
	for path, files := range m.files {
		rel, ok := strings.CutPrefix(path, prefix)
		if !ok {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					id := rel + "." + d.Name.Name
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if ident, ok := n.(*ast.Ident); ok {
								receivers[ident] = true
							}
							return true
						})
						id = rel + "." + receiverNamed(m.info.Defs[d.Name]).Obj().Name() + "." + d.Name.Name
					}
					if d.Name.IsExported() {
						decls[m.info.Defs[d.Name]] = decl{id, d.Pos(), d.End()}
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						var names []*ast.Ident
						switch s := s.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{s.Name}
						case *ast.ValueSpec:
							names = s.Names
						}
						for _, n := range names {
							if n.IsExported() {
								decls[m.info.Defs[n]] = decl{rel + "." + n.Name, s.Pos(), s.End()}
							}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for ident, obj := range m.info.Uses {
		d, ok := decls[origin(obj)]
		if ok && !receivers[ident] && (ident.Pos() < d.from || ident.Pos() >= d.to) {
			used[origin(obj)] = true
		}
	}
	ifaces := m.interfaces()
	var out []string
	for obj, d := range decls {
		if !used[obj] && !m.satisfiesInterface(obj, ifaces) {
			out = append(out, d.id)
		}
	}
	sort.Strings(out)
	return out
}

// errorsConventions are the methods the errors package calls through
// interface literals inside its functions, which an imported package's
// scope does not show.
const errorsConventions = `package errors
type unwrapper interface{ Unwrap() error }
type multiUnwrapper interface{ Unwrap() []error }
type iser interface{ Is(error) bool }
type aser interface{ As(any) bool }
`

// interfaces returns every interface type the module's code can reach:
// error and the errors package's conventions, those declared by the
// module and by every package it imports, and the interface literals it
// writes.
func (m *typedModule) interfaces() []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, q := range p.Imports() {
			visit(q)
		}
	}
	visit(m.conventions)
	for _, p := range m.pkgs {
		visit(p)
	}
	for _, tv := range m.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok {
			ifaces = append(ifaces, it)
		}
	}
	return ifaces
}

// satisfiesInterface reports whether obj is a method that some interface
// in ifaces declares and that the method's receiver type implements, or a
// module type that embeds the receiver and promotes obj implements.
func (m *typedModule) satisfiesInterface(obj types.Object, ifaces []*types.Interface) bool {
	named := receiverNamed(obj)
	if named == nil {
		return false
	}
	owners := []*types.Named{named}
	for _, pkg := range m.pkgs {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || tn.Type() == named {
				continue
			}
			if sel, _, _ := types.LookupFieldOrMethod(types.NewPointer(tn.Type()), false, obj.Pkg(), obj.Name()); sel == obj {
				owners = append(owners, tn.Type().(*types.Named))
			}
		}
	}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != obj.Name() {
				continue
			}
			for _, t := range owners {
				if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
					return true
				}
			}
		}
	}
	return false
}

// receiverNamed is the named type a method is declared on, or nil when
// obj is not a method.
func receiverNamed(obj types.Object) *types.Named {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return nil
	}
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// origin maps a use of a generic function's or type's instance to the
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}
