package perf

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryParamIsRead guards against dead calibrated constants: every
// Params field must be read somewhere in the module's non-test code, not
// only set in DefaultParams's literal (whose keys are not selector
// expressions, so they never count). The check is syntactic — a selector
// x.F with F a Params field name counts as a read unless it is the target
// of an assignment — so a same-named field of another type can hide a dead
// constant, but a field nobody names is always caught.
func TestEveryParamIsRead(t *testing.T) {
	root, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var files []*ast.File
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil && path != root {
				return filepath.SkipDir // a nested module is not this module's code
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var fields []string
	for _, f := range files {
		if f.Name.Name != "perf" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Params" {
				return true
			}
			for _, fl := range ts.Type.(*ast.StructType).Fields.List {
				for _, name := range fl.Names {
					fields = append(fields, name.Name)
				}
			}
			return false
		})
	}
	if len(fields) == 0 {
		t.Fatal("type Params not found")
	}

	read := map[string]bool{}
	for _, f := range files {
		written := map[*ast.SelectorExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					if sel, ok := lhs.(*ast.SelectorExpr); ok && n.Tok == token.ASSIGN {
						written[sel] = true
					}
				}
			case *ast.SelectorExpr:
				if !written[n] {
					read[n.Sel.Name] = true
				}
			}
			return true
		})
	}
	for _, name := range fields {
		if !read[name] {
			t.Errorf("perf.Params.%s is never read outside DefaultParams: delete it or use it", name)
		}
	}
}
