package spasm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"spasm/internal/report"
)

// TestRunSurface locks the exported run entrypoints of the façade and of
// internal/app.  There is one way to run a spec (Execute) and one way to
// run a Program (app.Execute); everything else listed here is a
// one-return wrapper.  A new Run* variant fails this test: add a field
// to RunOptions / app.Options instead, or delete a wrapper first.
func TestRunSurface(t *testing.T) {
	for _, tc := range []struct {
		dir  string
		want []string
	}{
		{".", []string{"Execute", "Run", "RunMany", "RunProgram", "RunSpec", "RunSpecOn", "RunSpecProfiled"}},
		{"internal/app", []string{"Execute", "Run"}},
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

// TestNoDeadRenderers: every exported *Table constructor in
// internal/report is called from non-test code somewhere in the module.
// A renderer only its own test calls is a second copy of some table
// waiting to drift; delete it or give a subcommand a reason to print it.
func TestNoDeadRenderers(t *testing.T) {
	fset := token.NewFileSet()
	called := map[string]bool{}
	var renderers []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if filepath.Dir(path) == filepath.Join("internal", "report") && n.Recv == nil &&
					n.Name.IsExported() && strings.HasSuffix(n.Name.Name, "Table") {
					renderers = append(renderers, n.Name.Name)
				}
			case *ast.CallExpr:
				switch fn := n.Fun.(type) {
				case *ast.Ident:
					called[fn.Name] = true
				case *ast.SelectorExpr:
					called[fn.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(renderers) == 0 {
		t.Fatal("found no report.*Table constructors; has the package moved?")
	}
	for _, name := range renderers {
		if !called[name] {
			t.Errorf("report.%s has no non-test caller", name)
		}
	}
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
	// per-run knobs.
	for _, tc := range []struct {
		typ  reflect.Type
		want []string
	}{
		{reflect.TypeOf(Options{}), []string{"Scale", "Procs", "Seed", "Machines", "Parallel", "Runner"}},
		{reflect.TypeOf(BatchPoint{}), []string{"App", "Config"}},
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
