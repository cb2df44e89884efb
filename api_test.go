package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryExportedFuncIsCalled guards against dead API: every exported
// top-level function and method declared in a non-test file under
// internal/ must be named, as an identifier or a selector, in some non-test
// file under internal/, cmd/, examples/ or bench/ other than by a
// declaration. The check is syntactic and goes by name alone, so a
// same-named function elsewhere can hide a dead one, but a name nobody
// writes is always caught. A name that stays without a caller goes in
// uncalled, with the reason it stays. The first three are hidden from the
// check by same-named fields and methods; they are listed so the list is
// complete.
func TestEveryExportedFuncIsCalled(t *testing.T) {
	uncalled := map[string]string{
		"runner.Job.State":         "a job's lifecycle state for library users; runner's tests read it",
		"scheduler.Config.Variant": "the variant name reports print for a config; scheduler's tests read it",
		"sim.Process.Done":         "whether a process body returned; sim's tests read it",

		"burgers.VectorSystem.VectorSerialSolve": "the runtime-free reference the coupled system's tests compare against",
		"perf.Roofline.MemoryBound":              "the roofline placement perf's tests assert for the paper's kernel",
		"sim.ShardSet.NumShards":                 "sharded-engine introspection; goes with the sharded engine",
		"sim.ShardSet.Lookahead":                 "sharded-engine introspection; goes with the sharded engine",
		"sim.ShardSet.PairLookahead":             "sharded-engine introspection; goes with the sharded engine",
		"sim.ShardSet.Post":                      "raw cross-shard posting the window tests drive; goes with the sharded engine",
	}

	type decl struct {
		key, name string
		pos       token.Position
	}
	var decls []decl
	used := map[string]bool{}
	fset := token.NewFileSet()
	for _, dir := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if d.Name() == "testdata" {
					return filepath.SkipDir
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
			declared := map[*ast.Ident]bool{}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declared[fd.Name] = true
				if dir == "internal" && fd.Name.IsExported() {
					decls = append(decls, decl{funcKey(f, fd), fd.Name.Name, fset.Position(fd.Pos())})
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !declared[id] {
					used[id.Name] = true
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(decls) == 0 {
		t.Fatal("no exported functions found under internal/")
	}

	var dead []string
	found := map[string]bool{}
	for _, d := range decls {
		found[d.key] = true
		if _, allowed := uncalled[d.key]; !used[d.name] && !allowed {
			dead = append(dead, d.pos.String()+": "+d.key)
		}
	}
	for key := range uncalled {
		if !found[key] {
			t.Errorf("%s is in uncalled but no longer declared; drop it", key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported but nothing outside tests calls it: delete it, or list it in uncalled with the reason it stays", d)
	}
}

// funcKey names a function "pkg.Func" and a method "pkg.Recv.Method".
func funcKey(f *ast.File, fd *ast.FuncDecl) string {
	key := f.Name.Name + "."
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		typ := fd.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		switch x := typ.(type) {
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		}
		if id, ok := typ.(*ast.Ident); ok {
			key += id.Name + "."
		}
	}
	return key + fd.Name.Name
}
