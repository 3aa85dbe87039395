package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestGoroutineInventory lists every `go` statement in the non-test code
// under internal/ by file and enclosing function. A goroutine that panics
// outside a recover takes the process with it, and one that only hands
// work to another is a queue and a shutdown order to get right, so each
// must be listed here on purpose: a new `go` statement fails this test
// until it is.
func TestGoroutineInventory(t *testing.T) {
	want := []string{
		"internal/maze/negotiate.go runPool",
		"internal/server/fleet/fleet.go newBoard",
		"internal/server/server.go StartLoop",
		"internal/server/server.go acceptOne",
		"internal/server/worker.go NewWorker",
	}
	var got []string
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if _, ok := n.(*ast.GoStmt); ok {
					got = append(got, filepath.ToSlash(path)+" "+fn.Name.Name)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Errorf("go statements under internal/:\n  %s\nwant:\n  %s", strings.Join(got, "\n  "), strings.Join(want, "\n  "))
	}
}
