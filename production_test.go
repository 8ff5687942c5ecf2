package hswsim

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The module whose production code the gate checks, and the directory of
// the benchmark module, whose non-test files call into it but are not
// themselves checked.
const (
	modulePath = "hswsim"
	benchDir   = "bench"
)

// TestProductionCodeIsReferenced: every top-level function, method and
// type in a non-test file is reached from code a program runs, so code
// only tests use lives in test files. The module and bench/ are
// type-checked from source with go/types; a declaration is live when
// live non-test code references it, so a reference from a dead
// declaration counts as none. The roots and exemptions are computed,
// not listed: package-level variables (their initializers run), the
// runtime's entry points (each init, and a command's entry function),
// everything bench/ references, the exported root API and all that its
// exported fields, methods and signatures reach, methods through which
// a live type satisfies an interface declared in the module or in a
// package it imports, and every declaration of a package that only
// _test.go files import (test support).
func TestProductionCodeIsReferenced(t *testing.T) {
	l := newProdLoader()
	dirs, err := moduleDirs()
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		if _, err := l.load(importPathOf(dir), dir); err != nil {
			t.Fatal(err)
		}
	}
	bench, err := l.load(modulePath+"/"+benchDir, benchDir)
	if err != nil {
		t.Fatal(err)
	}

	g := newRefGraph(l)
	for _, p := range l.ordered {
		if p == bench || p.testOnly(l) {
			continue
		}
		g.declare(p)
	}
	for _, p := range l.ordered {
		if p.testOnly(l) {
			continue
		}
		g.collect(p, p == bench)
	}
	g.exemptAPI(l.pkgs[modulePath].types)
	g.propagate()

	var dead []string
	for obj, what := range g.decls {
		if !g.live[obj] {
			dead = append(dead, what)
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("%s is referenced by no non-test code; delete it or move it into the test file that uses it", d)
	}
}

// moduleDirs lists the directories of the module's packages: every
// directory holding Go files, outside bench/ (a module of its own),
// testdata and hidden directories.
func moduleDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != "." && (path == benchDir || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		if m, _ := filepath.Glob(filepath.Join(path, "*.go")); len(m) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	return dirs, err
}

func inModule(path string) bool {
	return path == modulePath || strings.HasPrefix(path, modulePath+"/")
}

func importPathOf(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(dir)
}

// prodPkg is one type-checked package: its non-test files only.
type prodPkg struct {
	path  string
	build *build.Package
	files []*ast.File
	types *types.Package
}

// testOnly reports whether only _test.go files import the package.
func (p *prodPkg) testOnly(l *prodLoader) bool {
	return !p.build.IsCommand() && !l.importedBy[p.path] && l.testImportedBy[p.path]
}

// prodLoader type-checks the module's packages from source and takes
// everything else from the standard importer's export data.
type prodLoader struct {
	fset           *token.FileSet
	std            types.Importer
	info           *types.Info
	pkgs           map[string]*prodPkg
	ordered        []*prodPkg
	importedBy     map[string]bool // imported by some non-test file
	testImportedBy map[string]bool // imported by some _test.go file
}

func newProdLoader() *prodLoader {
	return &prodLoader{
		fset:           token.NewFileSet(),
		std:            importer.Default(),
		info:           &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}},
		pkgs:           map[string]*prodPkg{},
		importedBy:     map[string]bool{},
		testImportedBy: map[string]bool{},
	}
}

func (l *prodLoader) Import(path string) (*types.Package, error) {
	if !inModule(path) {
		return l.std.Import(path)
	}
	dir := "."
	if rest, ok := strings.CutPrefix(path, modulePath+"/"); ok {
		dir = filepath.FromSlash(rest)
	}
	p, err := l.load(path, dir)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

func (l *prodLoader) load(path, dir string) (*prodPkg, error) {
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	l.pkgs[path] = nil
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	for _, imp := range bp.Imports {
		l.importedBy[imp] = true
	}
	for _, imp := range append(bp.TestImports, bp.XTestImports...) {
		l.testImportedBy[imp] = true
	}
	p := &prodPkg{path: path, build: bp}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	var errs []string
	conf := types.Config{Importer: l, Error: func(err error) { errs = append(errs, err.Error()) }}
	p.types, _ = conf.Check(path, l.fset, p.files, l.info)
	if len(errs) > 0 {
		return nil, fmt.Errorf("type-checking %s:\n%s", path, strings.Join(errs, "\n"))
	}
	l.pkgs[path] = p
	l.ordered = append(l.ordered, p)
	return p, nil
}

// refGraph holds the checked declarations, the references between them
// and the live set grown from the roots.
type refGraph struct {
	l      *prodLoader
	decls  map[types.Object]string // checked declaration -> "file:line: kind name"
	index  map[types.Object]bool   // the checked declarations and constants
	refs   map[types.Object][]types.Object
	recv   map[types.Object]types.Object // method -> receiver type name
	ifaces map[*types.Interface]bool
	live   map[types.Object]bool
	queue  []types.Object
}

func newRefGraph(l *prodLoader) *refGraph {
	g := &refGraph{
		l:      l,
		decls:  map[types.Object]string{},
		index:  map[types.Object]bool{},
		refs:   map[types.Object][]types.Object{},
		recv:   map[types.Object]types.Object{},
		ifaces: map[*types.Interface]bool{},
		live:   map[types.Object]bool{},
	}
	g.addInterfaces(types.Universe, true) // error
	return g
}

// declare records p's top-level functions, methods and types, and the
// interfaces p and the packages it imports declare.
func (g *refGraph) declare(p *prodPkg) {
	add := func(id *ast.Ident, what string) {
		if obj := g.l.info.Defs[id]; obj != nil {
			pos := g.l.fset.Position(id.Pos())
			g.decls[obj] = fmt.Sprintf("%s:%d: %s", filepath.ToSlash(pos.Filename), pos.Line, what)
			g.index[obj] = true
		}
	}
	for _, f := range p.files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					add(d.Name, "method "+baseIdent(d.Recv.List[0].Type).Name+"."+d.Name.Name)
					continue
				}
				add(d.Name, "func "+d.Name.Name)
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, "type "+s.Name.Name)
					case *ast.ValueSpec:
						// Constants are followed, not reported: one is
						// live only while live code uses it.
						for _, name := range s.Names {
							if c, ok := g.l.info.Defs[name].(*types.Const); ok {
								g.index[c] = true
							}
						}
					}
				}
			}
		}
	}
	g.addInterfaces(p.types.Scope(), true)
	for _, imp := range p.types.Imports() {
		g.addInterfaces(imp.Scope(), inModule(imp.Path()))
	}
}

// addInterfaces records the non-generic, non-empty named interfaces a
// scope declares: all of them, or only the exported ones.
func (g *refGraph) addInterfaces(s *types.Scope, all bool) {
	for _, name := range s.Names() {
		tn, ok := s.Lookup(name).(*types.TypeName)
		if !ok || !(all || tn.Exported()) {
			continue
		}
		if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() > 0 {
			continue
		}
		if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			g.ifaces[it] = true
		}
	}
}

// collect walks p's files and records every reference to a checked
// declaration or constant: from the enclosing function, method, type or
// constant, or as a root from package-level variables (their
// initializers run), from the runtime's entry points and from every
// declaration of a caller package.
func (g *refGraph) collect(p *prodPkg, caller bool) {
	for _, f := range p.files {
		for _, d := range f.Decls {
			if caller {
				g.walk(d, nil)
				continue
			}
			switch d := d.(type) {
			case *ast.FuncDecl:
				obj := g.l.info.Defs[d.Name]
				switch {
				case d.Recv != nil:
					g.recv[obj] = g.l.info.Uses[baseIdent(d.Recv.List[0].Type)]
					// The receiver names the method's own type; that is
					// not a use of it.
					g.walk(&ast.FuncDecl{Name: d.Name, Type: d.Type, Body: d.Body}, obj)
				case p.types.Scope().Lookup(d.Name.Name) != obj,
					p.build.IsCommand() && d.Name.Name == p.build.Name:
					// Run by the runtime: init is declared outside the
					// package scope, and a command's entry function
					// shares its package's name.
					g.mark(obj)
					g.walk(d, nil)
				default:
					g.walk(d, obj)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						g.walk(s, g.l.info.Defs[s.Name])
					case *ast.ValueSpec:
						if d.Tok == token.VAR {
							g.walk(s, nil)
							continue
						}
						for _, name := range s.Names {
							c := g.l.info.Defs[name]
							g.walk(s, c)
							if n, ok := c.Type().(*types.Named); ok {
								g.refs[c] = append(g.refs[c], n.Obj())
							}
						}
					}
				}
			}
		}
	}
}

func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x
		default:
			return nil
		}
	}
}

// walk records n's references to checked objects as edges from the
// object from, or as roots when from is nil.
func (g *refGraph) walk(n ast.Node, from types.Object) {
	ast.Inspect(n, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := canonical(g.l.info.Uses[id]); obj != from && g.index[obj] {
				if from == nil {
					g.mark(obj)
				} else {
					g.refs[from] = append(g.refs[from], obj)
				}
			}
		}
		return true
	})
}

// canonical maps an instantiated generic function or method to its
// declaration.
func canonical(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
}

func (g *refGraph) mark(obj types.Object) {
	if obj != nil && g.index[obj] && !g.live[obj] {
		g.live[obj] = true
		g.queue = append(g.queue, obj)
	}
}

// exemptAPI marks live the exported root API and everything its
// exported aliases, fields, methods and signatures reach.
func (g *refGraph) exemptAPI(root *types.Package) {
	seen := map[types.Type]bool{}
	var reach func(t types.Type)
	reach = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			g.mark(t.Obj())
			reach(types.Unalias(t))
		case *types.Named:
			o := t.Origin()
			if o.Obj().Pkg() == nil || !inModule(o.Obj().Pkg().Path()) {
				return
			}
			g.mark(o.Obj())
			for i := 0; i < o.NumMethods(); i++ {
				if m := o.Method(i); m.Exported() {
					g.mark(m)
					reach(m.Type())
				}
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				reach(t.TypeArgs().At(i))
			}
			reach(o.Underlying())
		case *types.Map:
			reach(t.Key())
			reach(t.Elem())
		case interface{ Elem() types.Type }: // pointer, slice, array, chan
			reach(t.Elem())
		case *types.Signature:
			reach(t.Params())
			reach(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				reach(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() || f.Embedded() {
					reach(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					reach(m.Type())
				}
			}
		}
	}
	for _, name := range root.Scope().Names() {
		if obj := root.Scope().Lookup(name); obj.Exported() {
			g.mark(obj)
			reach(obj.Type())
		}
	}
}

// propagate grows the live set to a fixed point: a live declaration's
// references are live, a live method's receiver type is live, and so
// is each method through which a live type satisfies a known interface.
func (g *refGraph) propagate() {
	for len(g.queue) > 0 {
		obj := g.queue[len(g.queue)-1]
		g.queue = g.queue[:len(g.queue)-1]
		for _, to := range g.refs[obj] {
			g.mark(to)
		}
		g.mark(g.recv[obj])
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		for _, v := range []types.Type{tn.Type(), types.NewPointer(tn.Type())} {
			for it := range g.ifaces {
				if !types.Implements(v, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					sel, _, _ := types.LookupFieldOrMethod(v, true, m.Pkg(), m.Name())
					g.mark(canonical(sel))
				}
			}
		}
	}
}
