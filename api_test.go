package repro

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
	"sort"
	"strings"
	"sync"
	"testing"
)

// uncalled lists the exported functions, methods and struct fields under
// internal/ that no non-test code uses, each with the reason it stays.
// Keys are "pkg.Func", "pkg.Type.Method" and "pkg.Type.Field".
var uncalled = map[string]string{
	"runner.Job.State":         "a job's lifecycle state for library users; runner's tests read it",
	"scheduler.Config.Variant": "the variant name reports print for a config; scheduler's tests read it",
	"sim.Process.Done":         "whether a process body returned; sim's tests read it",
	"sim.Engine.SetReference":  "the reference-mode switch every fast path is tested against; only tests set it",
	"mpisim.Rank.Isend":        "the one-shot send on the persistent requests' channel code; mpisim's exchange properties drive it",
	"mpisim.Rank.Irecv":        "the one-shot receive on the persistent requests' channel code; mpisim's exchange properties drive it",

	"burgers.VectorSystem.VectorSerialSolve": "the runtime-free reference the coupled system's tests compare against",
	"heat3d.SerialSolve":                     "the runtime-free reference heat3d's tests compare the scheduled runs against",
	"workload.Scenario.Canonical":            "the canonical form workload's golden and fuzz tests pin",
	"sim.ShardSet.Post":                      "raw cross-shard posting the window tests drive; goes with the sharded engine",
}

// TestEveryExportedFuncIsCalled guards against dead API: every exported
// function and method declared in a non-test file under internal/ must be
// used by some non-test file under internal/, cmd/, examples/ or bench/.
// The check is type-checked: a use is keyed by the object it refers to, so
// a called method of one type never hides an uncalled same-named method of
// another. A method also counts as used when its type implements an
// interface whose same-named method is called (the call may reach it
// dynamically), fmt.Stringer included. A name that stays without a caller
// goes in uncalled, with the reason it stays.
func TestEveryExportedFuncIsCalled(t *testing.T) {
	api := loadAPI(t)
	checkUncalled(t, api, api.funcs)
}

// TestEveryExportedFieldIsSet guards against dead settings: every exported
// field of an exported struct declared in a non-test file under internal/
// must be written by some non-test file under internal/, cmd/, examples/
// or bench/. A write is a composite-literal key or position, an assignment
// or increment to a selector chain that passes through the field, or
// taking the field's address. A field with a struct tag is exempt: decoding
// writes it. A field that stays unset goes in uncalled, with the reason it
// stays.
func TestEveryExportedFieldIsSet(t *testing.T) {
	api := loadAPI(t)
	checkUncalled(t, api, api.fields)
}

// apiDecl is one exported declaration under internal/ and whether non-test
// code uses it.
type apiDecl struct {
	key  string
	pos  token.Position
	used bool
}

type apiReport struct {
	funcs, fields []apiDecl
	err           error
}

var (
	apiOnce   sync.Once
	apiResult apiReport
)

// loadAPI type-checks every non-test package under internal/, cmd/,
// examples/ and bench/ once per test binary and classifies the exported
// declarations under internal/.
func loadAPI(t *testing.T) apiReport {
	t.Helper()
	apiOnce.Do(func() { apiResult = buildAPIReport() })
	if apiResult.err != nil {
		t.Fatal(apiResult.err)
	}
	return apiResult
}

// checkUncalled reports each of decls that nothing uses and uncalled does
// not list, each listed one that is used, and each listed key api does not
// declare.
func checkUncalled(t *testing.T, api apiReport, decls []apiDecl) {
	if len(decls) == 0 {
		t.Fatal("no exported declarations found under internal/")
	}
	var dead []string
	for _, d := range decls {
		_, listed := uncalled[d.key]
		switch {
		case !d.used && !listed:
			dead = append(dead, d.pos.String()+": "+d.key)
		case d.used && listed:
			t.Errorf("%s is in uncalled but non-test code uses it; drop it from the list", d.key)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is exported but nothing outside tests uses it: delete it, or list it in uncalled with the reason it stays", d)
	}
	declared := map[string]bool{}
	for _, d := range append(append([]apiDecl{}, api.funcs...), api.fields...) {
		declared[d.key] = true
	}
	for key := range uncalled {
		if !declared[key] {
			t.Errorf("%s is in uncalled but no longer declared; drop it", key)
		}
	}
}

// program type-checks this module's packages from source, keyed by import
// path, and imports the standard library from compiled export data.
type program struct {
	fset  *token.FileSet
	info  *types.Info
	std   types.Importer
	pkgs  map[string]*types.Package
	files []*ast.File
	// pkgOf is each checked file's package.
	pkgOf map[*ast.File]*types.Package
}

const modulePath = "sunuintah"

func (p *program) Import(path string) (*types.Package, error) {
	dir, ok := strings.CutPrefix(path, modulePath+"/")
	if !ok {
		return p.std.Import(path)
	}
	return p.check(path, filepath.FromSlash(dir))
}

// check parses and type-checks the non-test files of the package in dir.
func (p *program) check(path, dir string) (*types.Package, error) {
	if pkg, ok := p.pkgs[path]; ok {
		return pkg, nil
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
			continue
		}
		f, err := parser.ParseFile(p.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	conf := types.Config{Importer: p}
	pkg, err := conf.Check(path, p.fset, files, p.info)
	if err != nil {
		return nil, err
	}
	p.pkgs[path] = pkg
	p.files = append(p.files, files...)
	for _, f := range files {
		p.pkgOf[f] = pkg
	}
	return pkg, nil
}

func buildAPIReport() apiReport {
	p := &program{
		fset: token.NewFileSet(),
		info: &types.Info{
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		std:   importer.Default(),
		pkgs:  map[string]*types.Package{},
		pkgOf: map[*ast.File]*types.Package{},
	}
	var internal []*types.Package
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			pkg, err := p.check(modulePath+"/"+filepath.ToSlash(path), path)
			if pkg != nil && root == "internal" {
				internal = append(internal, pkg)
			}
			return err
		})
		if err != nil {
			return apiReport{err: err}
		}
	}
	used := map[types.Object]bool{}
	var ifaceMethods []*types.Func
	for _, obj := range p.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		used[fn.Origin()] = true
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
			ifaceMethods = append(ifaceMethods, fn)
		}
	}
	// fmt calls String on the fmt.Stringer values it prints.
	fmtPkg, err := p.std.Import("fmt")
	if err != nil {
		return apiReport{err: err}
	}
	stringer := fmtPkg.Scope().Lookup("Stringer").Type().Underlying().(*types.Interface)
	ifaceMethods = append(ifaceMethods, stringer.Method(0))
	written := p.writtenFields()

	var rep apiReport
	for _, pkg := range internal {
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					rep.funcs = append(rep.funcs, p.decl(pkg.Name()+"."+name, obj, used[obj]))
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok || obj.IsAlias() {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() {
						live := used[m] || callableThrough(named, m, ifaceMethods)
						rep.funcs = append(rep.funcs, p.decl(pkg.Name()+"."+name+"."+m.Name(), m, live))
					}
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok || !obj.Exported() {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if f.Exported() && st.Tag(i) == "" {
						rep.fields = append(rep.fields, p.decl(pkg.Name()+"."+name+"."+f.Name(), f, written[f]))
					}
				}
			}
		}
	}
	return rep
}

func (p *program) decl(key string, obj types.Object, used bool) apiDecl {
	return apiDecl{key: key, pos: p.fset.Position(obj.Pos()), used: used}
}

// callableThrough reports whether a call of one of ifaceMethods may
// dispatch to m, a method of named: the interface method has m's name and
// named or *named implements its interface.
func callableThrough(named *types.Named, m *types.Func, ifaceMethods []*types.Func) bool {
	for _, im := range ifaceMethods {
		if im.Name() != m.Name() {
			continue
		}
		iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			return true
		}
	}
	return false
}

// writtenFields returns every struct field some checked file writes. A
// field's own package defaulting it, as in
//
//	if cfg.X <= 0 { cfg.X = 4 }
//
// is not a write: an assignment in an if body to a field of the file's
// package, whose condition compares that field with a constant or nil,
// sets no value a caller chose.
func (p *program) writtenFields() map[*types.Var]bool {
	written := map[*types.Var]bool{}
	// chain marks every field selected along an addressable expression
	// such as a.B[i].C, all of which the write through it changes.
	var chain func(e ast.Expr)
	chain = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.SelectorExpr:
			if v, ok := p.info.Uses[x.Sel].(*types.Var); ok && v.IsField() {
				written[v.Origin()] = true
			}
			chain(x.X)
		case *ast.IndexExpr:
			chain(x.X)
		case *ast.StarExpr:
			chain(x.X)
		case *ast.ParenExpr:
			chain(x.X)
		}
	}
	field := func(e ast.Expr) *types.Var {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if v, ok := p.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				return v.Origin()
			}
		}
		return nil
	}
	for _, f := range p.files {
		defaults := map[*ast.AssignStmt]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.IfStmt:
				unset := map[*types.Var]bool{}
				if !p.unsetTests(x.Cond, field, unset) {
					break
				}
				for _, st := range x.Body.List {
					if as, ok := st.(*ast.AssignStmt); ok && len(as.Lhs) == 1 {
						if v := field(as.Lhs[0]); v != nil && unset[v] && v.Pkg() == p.pkgOf[f] {
							defaults[as] = true
						}
					}
				}
			case *ast.AssignStmt:
				if defaults[x] {
					return true
				}
				for _, lhs := range x.Lhs {
					chain(lhs)
				}
			case *ast.IncDecStmt:
				chain(x.X)
			case *ast.RangeStmt:
				if x.Tok == token.ASSIGN {
					chain(x.Key)
					chain(x.Value)
				}
			case *ast.UnaryExpr:
				if x.Op == token.AND {
					chain(x.X)
				}
			case *ast.SelectorExpr:
				// x.F.M() with a pointer-receiver M takes &x.F.
				sel := p.info.Selections[x]
				if sel == nil || sel.Kind() != types.MethodVal {
					return true
				}
				_, ptrRecv := sel.Obj().Type().(*types.Signature).Recv().Type().(*types.Pointer)
				_, ptrX := sel.Recv().Underlying().(*types.Pointer)
				if ptrRecv && !ptrX {
					chain(x.X)
				}
			case *ast.CompositeLit:
				typ := p.info.Types[x].Type
				if ptr, ok := typ.(*types.Pointer); ok {
					typ = ptr.Elem()
				}
				st, ok := typ.Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, el := range x.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						if v, ok := p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
							written[v.Origin()] = true
						}
					} else {
						written[st.Field(i).Origin()] = true
					}
				}
			}
			return true
		})
	}
	return written
}

// unsetTests reports whether cond is a test that a field is unset: a
// comparison of a field with a constant or nil by <, <= or ==, or an ||
// chain of them. It adds the fields tested to unset.
func (p *program) unsetTests(cond ast.Expr, field func(ast.Expr) *types.Var, unset map[*types.Var]bool) bool {
	b, ok := ast.Unparen(cond).(*ast.BinaryExpr)
	if !ok {
		return false
	}
	switch b.Op {
	case token.LOR:
		return p.unsetTests(b.X, field, unset) && p.unsetTests(b.Y, field, unset)
	case token.LSS, token.LEQ, token.EQL:
		fixed := func(e ast.Expr) bool {
			tv := p.info.Types[e]
			return tv.Value != nil || tv.IsNil()
		}
		for _, v := range []*types.Var{field(b.X), field(b.Y)} {
			if v != nil && (fixed(b.X) || fixed(b.Y)) {
				unset[v] = true
				return true
			}
		}
	}
	return false
}
