package workload

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"strings"
	"testing"
)

// TestNoRangeOverMap type-checks this package's program code and fails on
// any range over a map: Go randomizes map iteration order, so a program
// that ranged over one could emit a different branch stream on every run.
func TestNoRangeOverMap(t *testing.T) {
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatalf("parsing package source: %v", err)
		}
		files = append(files, f)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("branchsim/internal/workload", fset, files, info); err != nil {
		t.Fatalf("type-checking package source: %v", err)
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			r, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			if _, isMap := info.TypeOf(r.X).Underlying().(*types.Map); isMap {
				t.Errorf("%s: range over a map", fset.Position(r.For))
			}
			return true
		})
	}
}
