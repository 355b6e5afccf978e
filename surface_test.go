package spasm

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"sort"
	"strings"
	"testing"
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
