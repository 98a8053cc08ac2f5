package choir_test

import (
	"go/ast"
	"go/build"
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
//   - Roots: every main and init, the initializer of every package-level
//     variable that is not declared (below), which runs whether or not
//     anything names the variable, and every method that makes its type
//     implement a standard-library interface (String, Error, ServeHTTP,
//     ...), which the standard library may call without the module naming
//     it.
//   - Edges: every function, method, type, constant or variable a reached
//     function's signature or body names (a method's own receiver does not
//     count), and every one a live type, constant or variable's declaration
//     names. An exported variable's initializer is visited only once the
//     variable is live. A constant whose type is declared in its own package
//     is live with that type, so an enum stays whole.
//   - Naming an interface method reaches that method on every live module
//     type that implements the interface: a type nothing that runs names is
//     never built, so no call through an interface lands on it.
//
// Declarations are keyed by qualified name: the package's directory under
// the module root ("choir" for the root itself), then the receiver type if
// any, then the name, as in "internal/backend.Pool.Get" or
// "internal/lora.SF9". Declared are every function and method, every
// package-level type and constant, and every exported package-level
// variable. The fields of every package-level struct type, but blank ones,
// which nothing can read, are keyed the same way
// ("internal/sim/engine.Config.Shards", "internal/choir.segModel.f"); one
// is read when a reached body selects it anywhere but on the left of a
// plain assignment, so setting it in a composite literal or by "=" does not
// count. Selecting through an embedded field reads the embedded field too.
type reach struct {
	declared map[string]bool // declarations and declared fields outside the frozen directory
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
		// Only the files this platform's build compiles: a kernel's
		// per-architecture files declare the same names.
		if ok, err := build.Default.MatchFile(filepath.Dir(p), filepath.Base(p)); err != nil || !ok {
			return err
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
		specs:  map[types.Object]spec{},
		seen:   map[types.Object]bool{},
		enums:  map[*types.TypeName][]*types.Const{},
		byKey:  map[string]types.Object{},
	}
	var roots []spec // initializers of the variables that are not declared
	for _, pkg := range l.pkgs {
		declare := pkg.dir != frozen
		for _, f := range pkg.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := pkg.info.Defs[d.Name].(*types.Func)
					s.bodies[obj], s.decls[obj] = pkg, d
					isRoot := d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && pkg.types.Name() == "main")
					if isRoot {
						s.queue = append(s.queue, obj)
					} else if declare {
						s.declare(obj)
					}
				case *ast.GenDecl:
					var last *ast.ValueSpec // an implicit constant repeats the last explicit one
					for _, sp := range d.Specs {
						switch sp := sp.(type) {
						case *ast.TypeSpec:
							obj := pkg.info.Defs[sp.Name]
							s.specs[obj] = spec{pkg, sp}
							if !declare {
								continue
							}
							s.declare(obj)
							if st, ok := obj.Type().Underlying().(*types.Struct); ok && !sp.Assign.IsValid() {
								for i := range st.NumFields() {
									if f := st.Field(i); f.Name() != "_" {
										key := objKey(obj) + "." + f.Name()
										s.r.declared[key], s.fields[f] = true, key
									}
								}
							}
						case *ast.ValueSpec:
							node := sp
							if d.Tok == token.CONST {
								if sp.Values != nil {
									last = sp
								}
								node = last
							}
							root := false
							for _, name := range sp.Names {
								obj := pkg.info.Defs[name] // nil for _
								declared := obj != nil && declare && (d.Tok == token.CONST || name.IsExported())
								root = root || d.Tok == token.VAR && !declared
								if obj == nil {
									continue
								}
								s.specs[obj] = spec{pkg, node}
								if declared {
									s.declare(obj)
								}
								if c, ok := obj.(*types.Const); ok {
									if n, ok := c.Type().(*types.Named); ok && n.Obj().Pkg() == c.Pkg() {
										s.enums[n.Obj()] = append(s.enums[n.Obj()], c)
									}
								}
							}
							if root {
								roots = append(roots, spec{pkg, sp})
							}
						}
					}
				}
			}
		}
	}
	// Methods named for a standard-library interface their type implements.
	std := stdInterfaces(l)
	for obj := range s.specs {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		n, ok := tn.Type().(*types.Named)
		if !ok || n.TypeParams().Len() > 0 {
			continue
		}
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
	for _, sp := range roots {
		s.visit(sp.pkg, sp.node)
	}
	s.drain()
	for key := range s.r.live {
		s.r.kept[key] = true
	}
	s.into = s.r.kept
	for key := range extra {
		if obj := s.byKey[key]; obj != nil {
			s.reachObj(obj)
		}
	}
	s.drain()
	return s.r
}

// spec is where a package-level type, constant or variable is declared:
// what visiting it reaches.
type spec struct {
	pkg  *loadedPkg
	node ast.Node
}

// declare keys a declaration outside the frozen directory.
func (s *scan) declare(obj types.Object) {
	key := objKey(obj)
	s.r.declared[key] = true
	s.byKey[key] = obj
}

// objKey is a declaration's key: qualified for a function or method,
// "dir.Name" for a type, constant or variable.
func objKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		return qualified(fn)
	}
	return pkgKey(obj.Pkg()) + "." + obj.Name()
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
	fields map[*types.Var]string // declared fields -> key
	bodies map[*types.Func]*loadedPkg
	decls  map[*types.Func]*ast.FuncDecl
	done   map[*types.Func]bool
	ifaces map[*types.Func]bool // interface methods already fanned out
	specs  map[types.Object]spec
	seen   map[types.Object]bool              // types, constants and variables already reached
	named  []*types.Named                     // the reached named types, for fan-out
	enums  map[*types.TypeName][]*types.Const // a type's constants in its own package
	byKey  map[string]types.Object
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
		// The signature and the body; the receiver names the method's own
		// type, which calling the method does not build.
		pkg, decl := s.bodies[fn], s.decls[fn]
		s.visit(pkg, decl.Type)
		if decl.Body != nil {
			s.visit(pkg, decl.Body)
		}
	}
}

// visit reaches every declaration n names and records every declared field
// it reads.
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
			sel := pkg.info.Selections[n]
			if sel == nil {
				break
			}
			// The embedded fields the selection passes through are read.
			t := sel.Recv()
			for _, i := range sel.Index()[:len(sel.Index())-1] {
				if p, ok := t.(*types.Pointer); ok {
					t = p.Elem()
				}
				f := t.Underlying().(*types.Struct).Field(i)
				s.readField(f)
				t = f.Type()
			}
			if sel.Kind() == types.FieldVal && !written[n] {
				s.readField(sel.Obj().(*types.Var))
			}
		case *ast.Ident:
			if obj := pkg.info.Uses[n]; obj != nil {
				s.reachObj(obj)
			}
		}
		return true
	})
}

// readField records a read of f if it is a declared field.
func (s *scan) readField(f *types.Var) {
	if key, ok := s.fields[f.Origin()]; ok {
		s.into[key] = true
	}
}

// reachObj reaches a module declaration: a function or method through
// reachFunc, a package-level type, constant or variable by visiting its
// declaration. Anything else (a local, a field, the standard library) is
// not the scan's.
func (s *scan) reachObj(obj types.Object) {
	if fn, ok := obj.(*types.Func); ok {
		s.reachFunc(fn.Origin())
		return
	}
	sp, ok := s.specs[obj]
	if !ok || s.seen[obj] {
		return
	}
	s.seen[obj] = true
	s.into[objKey(obj)] = true
	s.visit(sp.pkg, sp.node)
	tn, ok := obj.(*types.TypeName)
	if !ok {
		return
	}
	for _, c := range s.enums[tn] {
		s.reachObj(c)
	}
	n, ok := tn.Type().(*types.Named)
	if !ok || tn.IsAlias() || n.TypeParams().Len() > 0 {
		return
	}
	s.named = append(s.named, n)
	for fn := range s.ifaces {
		s.fanOut(fn, n)
	}
}

// reachFunc queues a module function or method. An interface method instead
// reaches that method on every live module type implementing the
// interface, now and as more types go live.
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
	for _, n := range s.named {
		s.fanOut(fn, n)
	}
}

// fanOut reaches n's implementation of the interface method fn, if n
// implements fn's interface.
func (s *scan) fanOut(fn *types.Func, n *types.Named) {
	ptr := types.NewPointer(n)
	if !types.Implements(ptr, fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)) {
		return
	}
	if m, _, _ := types.LookupFieldOrMethod(ptr, true, fn.Pkg(), fn.Name()); m != nil {
		s.reachFunc(m.(*types.Func))
	}
}

// TestReachSeesPastNames scans testdata/reach, whose lib package declares
// dead things that a bare-name match passes: a method sharing its name with
// a live one and a type only that method's receiver names, an interface
// method's implementation that nothing calls through the interface, a type
// that implements a called interface method but that nothing builds and
// its field only its dead methods read, a Config field and a result field
// that are set but never read, an exported type and constant nothing names,
// and a facade-style variable with the function only it names; and main's
// own struct, outside lib and named for no Config, declares a field main
// sets and never reads. The scan must report exactly those, and none of the
// live code around them: a blank field, which nothing can read, a method
// fmt calls through fmt.Stringer, a package-level initializer, an init, a
// method reached only through an interface, an enum constant kept only by
// its type, and an embedded field read only through the field it promotes.
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
	want := []string{
		"lib.Circle", "lib.Circle.Area", "lib.Circle.Name", "lib.Circle.R", "lib.Config.Ignored",
		"lib.Gauge", "lib.Gauge.Add", "lib.MaxSides", "lib.Result.Shapes", "lib.Spare",
		"lib.Square.Name", "lib.Twice", "lib.twice", "reach.report.Note",
	}
	if !slices.Equal(dead, want) {
		t.Errorf("dead = %q, want %q", dead, want)
	}
}
