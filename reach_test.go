package choir_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// reach is a type-checked reachability scan of one module's non-test code.
//
//   - Roots: every main and init, every package-level variable's initializer,
//     and every method that makes its type implement a standard-library
//     interface (String, Error, ServeHTTP, ...), which the standard library
//     may call without the module naming it.
//   - Edges: every function or method a reached body names. Naming an
//     interface method reaches that method on every module type that
//     implements the interface.
//
// Declarations are keyed by qualified name: the package's directory under
// the module root ("choir" for the root itself), then the receiver type if
// any, then the name, as in "internal/backend.Pool.Get". Fields of every
// exported struct type named Config are keyed the same way
// ("internal/sim/engine.Config.Shards"); one is read when a reached body
// selects it anywhere but on the left of a plain assignment, so setting it
// in a composite literal or by "=" does not count.
type reach struct {
	declared map[string]bool // functions, methods and Config fields outside the frozen directory
	live     map[string]bool // reached from the roots, or read by what is
	kept     map[string]bool // live, plus what the extra roots reach or read
}

// scanReach loads every non-test package under root (a module whose path is
// modulePath) and runs the scan. Declarations in the frozen directory are
// scanned as callers but are not declared. Each key of extra that names a
// declaration is a further root; its reach goes into kept and not live.
func scanReach(t *testing.T, root, modulePath, frozen string, extra map[string]string) reach {
	t.Helper()
	l := &loader{fset: token.NewFileSet(), pkgs: map[string]*loadedPkg{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(l.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		importPath := path.Join(modulePath, filepath.ToSlash(dir))
		pkg := l.pkgs[importPath]
		if pkg == nil {
			pkg = &loadedPkg{dir: filepath.ToSlash(dir)}
			l.pkgs[importPath] = pkg
		}
		pkg.files = append(pkg.files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for importPath := range l.pkgs {
		if _, err := l.Import(importPath); err != nil {
			t.Fatal(err)
		}
	}

	s := &scan{
		r:      reach{declared: map[string]bool{}, live: map[string]bool{}, kept: map[string]bool{}},
		fields: map[*types.Var]string{},
		bodies: map[*types.Func]*loadedPkg{},
		decls:  map[*types.Func]*ast.FuncDecl{},
		done:   map[*types.Func]bool{},
		ifaces: map[*types.Func]bool{},
		byKey:  map[string]*types.Func{},
	}
	for _, pkg := range l.pkgs {
		declare := pkg.dir != frozen
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj := pkg.info.Defs[fn.Name].(*types.Func)
				s.bodies[obj], s.decls[obj] = pkg, fn
				isRoot := fn.Recv == nil && (fn.Name.Name == "init" || fn.Name.Name == "main" && pkg.types.Name() == "main")
				if isRoot {
					s.queue = append(s.queue, obj)
				} else if declare {
					s.r.declared[qualified(obj)] = true
					s.byKey[qualified(obj)] = obj
				}
			}
		}
		for _, name := range pkg.types.Scope().Names() {
			tn, ok := pkg.types.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			n, ok := tn.Type().(*types.Named)
			if !ok || n.TypeParams().Len() > 0 {
				continue
			}
			s.named = append(s.named, n)
			if st, ok := n.Underlying().(*types.Struct); ok && declare && name == "Config" {
				for i := range st.NumFields() {
					key := pkgKey(pkg.types) + ".Config." + st.Field(i).Name()
					s.r.declared[key], s.fields[st.Field(i)] = true, key
				}
			}
		}
	}
	// Methods named for a standard-library interface their type implements.
	std := stdInterfaces(l)
	for _, n := range s.named {
		for i := range n.NumMethods() {
			m := n.Method(i)
			for _, iface := range std[m.Name()] {
				if types.Implements(n, iface) || types.Implements(types.NewPointer(n), iface) {
					s.queue = append(s.queue, m)
					break
				}
			}
		}
	}
	s.into = s.r.live
	for _, pkg := range l.pkgs {
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
					s.visit(pkg, gd)
				}
			}
		}
	}
	s.drain()
	for key := range s.r.live {
		s.r.kept[key] = true
	}
	s.into = s.r.kept
	for key := range extra {
		if fn := s.byKey[key]; fn != nil {
			s.queue = append(s.queue, fn)
		}
	}
	s.drain()
	return s.r
}

// qualified is a function's or method's key: "dir.Name" or "dir.Recv.Name".
func qualified(fn *types.Func) string {
	name := fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if n, ok := t.(*types.Named); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	return pkgKey(fn.Pkg()) + "." + name
}

// pkgKey is a module package's directory under the module root, or the
// module path for the root package. Both modules scanned here have
// one-element paths ("choir", "reach").
func pkgKey(p *types.Package) string {
	if _, dir, ok := strings.Cut(p.Path(), "/"); ok {
		return dir
	}
	return p.Path()
}

// loader type-checks the module's packages itself, so that one object stands
// for each declaration however many packages import it, and leaves the
// standard library to the source importer.
type loader struct {
	fset *token.FileSet
	pkgs map[string]*loadedPkg // import path -> package
	std  types.Importer
}

type loadedPkg struct {
	dir   string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

func (l *loader) Import(importPath string) (*types.Package, error) {
	pkg, ok := l.pkgs[importPath]
	if !ok {
		return l.std.Import(importPath)
	}
	if pkg.types == nil {
		pkg.info = &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}
		conf := types.Config{Importer: l}
		var err error
		if pkg.types, err = conf.Check(importPath, l.fset, pkg.files, pkg.info); err != nil {
			return nil, err
		}
	}
	return pkg.types, nil
}

// stdInterfaces indexes by method name every exported interface of every
// standard-library package the module imports, directly or not, and error.
func stdInterfaces(l *loader) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	add := func(iface *types.Interface) {
		for i := range iface.NumMethods() {
			byName[iface.Method(i).Name()] = append(byName[iface.Method(i).Name()], iface)
		}
	}
	add(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		if l.pkgs[p.Path()] == nil {
			for _, name := range p.Scope().Names() {
				tn, ok := p.Scope().Lookup(name).(*types.TypeName)
				if !ok || !tn.Exported() {
					continue
				}
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.IsMethodSet() {
					if n, ok := tn.Type().(*types.Named); !ok || n.TypeParams().Len() == 0 {
						add(iface)
					}
				}
			}
		}
		for _, im := range p.Imports() {
			walk(im)
		}
	}
	for _, pkg := range l.pkgs {
		walk(pkg.types)
	}
	return byName
}

// scan is the breadth-first walk over the call graph.
type scan struct {
	r      reach
	named  []*types.Named
	fields map[*types.Var]string // Config fields -> key
	bodies map[*types.Func]*loadedPkg
	decls  map[*types.Func]*ast.FuncDecl
	done   map[*types.Func]bool
	ifaces map[*types.Func]bool // interface methods already fanned out
	byKey  map[string]*types.Func
	queue  []*types.Func
	into   map[string]bool // where reached keys go: live, then kept
}

// drain reaches everything the queue leads to.
func (s *scan) drain() {
	for len(s.queue) > 0 {
		fn := s.queue[0]
		s.queue = s.queue[1:]
		if s.done[fn] {
			continue
		}
		s.done[fn] = true
		s.into[qualified(fn)] = true
		s.visit(s.bodies[fn], s.decls[fn])
	}
}

// visit reaches every function n names and records every Config field it
// reads.
func (s *scan) visit(pkg *loadedPkg, n ast.Node) {
	written := map[*ast.SelectorExpr]bool{}
	ast.Inspect(n, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN {
				for _, lhs := range n.Lhs {
					if sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr); ok {
						written[sel] = true
					}
				}
			}
		case *ast.SelectorExpr:
			if sel := pkg.info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal && !written[n] {
				if key, ok := s.fields[sel.Obj().(*types.Var)]; ok {
					s.into[key] = true
				}
			}
		case *ast.Ident:
			if fn, ok := pkg.info.Uses[n].(*types.Func); ok {
				s.reachFunc(fn.Origin())
			}
		}
		return true
	})
}

// reachFunc queues a module function or method. An interface method instead
// queues that method on every module type implementing the interface.
func (s *scan) reachFunc(fn *types.Func) {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil || !types.IsInterface(recv.Type()) {
		if s.bodies[fn] != nil {
			s.queue = append(s.queue, fn)
		}
		return
	}
	if s.ifaces[fn] {
		return
	}
	s.ifaces[fn] = true
	iface := recv.Type().Underlying().(*types.Interface)
	for _, n := range s.named {
		ptr := types.NewPointer(n)
		if !types.Implements(ptr, iface) {
			continue
		}
		if m, _, _ := types.LookupFieldOrMethod(ptr, true, fn.Pkg(), fn.Name()); m != nil {
			s.reachFunc(m.(*types.Func))
		}
	}
}

// TestReachSeesPastNames scans testdata/reach, whose lib package declares
// three dead things that a bare-name match passes: a method sharing its name
// with a live one, an interface method's implementation that nothing calls
// through the interface, and a Config field that is set but never read. The
// scan must report exactly those, and none of the live code around them: a
// method fmt calls through fmt.Stringer, a package-level initializer, an
// init, and a method reached only through an interface.
func TestReachSeesPastNames(t *testing.T) {
	if raceEnabled() && testing.Short() {
		t.Skip("-race -short: the scan type-checks the standard library from source; the plain run keeps it")
	}
	r := scanReach(t, filepath.Join("testdata", "reach"), "reach", "", nil)
	var dead []string
	for key := range r.declared {
		if !r.live[key] {
			dead = append(dead, key)
		}
	}
	sort.Strings(dead)
	want := []string{"lib.Config.Ignored", "lib.Gauge.Add", "lib.Square.Name"}
	if !slices.Equal(dead, want) {
		t.Errorf("dead = %q, want %q", dead, want)
	}
}
