package repro_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoWritesToSharedArch: arch.NewVirtex, NewKestrel and ByName hand every
// caller one shared *arch.Arch, so code outside internal/arch must never
// write one. It type-checks the non-test files of every package under
// internal/ and cmd/ against its dependencies' export data (`go list
// -export`) and fails on any assignment, increment or address-of whose
// target is a field of an arch.Arch or a whole arch.Arch.
func TestNoWritesToSharedArch(t *testing.T) {
	out, err := exec.Command("go", "list", "-export", "-deps",
		"-f", "{{.ImportPath}}\t{{.Export}}\t{{.Dir}}\t{{join .GoFiles \" \"}}",
		"./internal/...", "./cmd/...").Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	exports := map[string]string{}
	type pkg struct{ path, dir, files string }
	var mine []pkg
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		exports[f[0]] = f[1]
		if (strings.HasPrefix(f[0], "repro/internal/") || strings.HasPrefix(f[0], "repro/cmd/")) && f[0] != "repro/internal/arch" {
			mine = append(mine, pkg{f[0], f[2], f[3]})
		}
	}
	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(exports[path])
	})}
	isArch := func(t types.Type) bool {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		return ok && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == "repro/internal/arch" && n.Obj().Name() == "Arch"
	}
	checked := 0
	for _, p := range mine {
		var files []*ast.File
		for _, name := range strings.Fields(p.files) {
			f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}, Types: map[ast.Expr]types.TypeAndValue{}}
		if _, err := conf.Check(p.path, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", p.path, err)
		}
		checked++
		// written reports whether e names storage inside an arch.Arch: a
		// field reached through one (promoted fields included), or the
		// value a pointer to one points at.
		written := func(e ast.Expr) bool {
			e = ast.Unparen(e)
			if s, ok := e.(*ast.SelectorExpr); ok {
				sel, ok := info.Selections[s]
				if !ok || sel.Kind() != types.FieldVal {
					return false
				}
				holder := sel.Recv()
				for _, i := range sel.Index()[:len(sel.Index())-1] {
					if ptr, ok := holder.(*types.Pointer); ok {
						holder = ptr.Elem()
					}
					holder = holder.Underlying().(*types.Struct).Field(i).Type()
				}
				return isArch(holder)
			}
			_, star := e.(*ast.StarExpr)
			return star && isArch(info.TypeOf(e))
		}
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				var targets []ast.Expr
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.DEFINE {
						targets = n.Lhs
					}
				case *ast.IncDecStmt:
					targets = []ast.Expr{n.X}
				case *ast.RangeStmt:
					if n.Tok == token.ASSIGN {
						targets = []ast.Expr{n.Key, n.Value}
					}
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						targets = []ast.Expr{n.X}
					}
				}
				for _, e := range targets {
					if e != nil && written(e) {
						t.Errorf("%s: writes a shared arch.Arch", fset.Position(e.Pos()))
					}
				}
				return true
			})
		}
	}
	if checked < 10 {
		t.Fatalf("type-checked %d packages under internal/ and cmd/; go list found too few", checked)
	}
}
