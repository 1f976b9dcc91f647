package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

// keepAPI lists the names and fields the dead-api row lets stand although
// no non-test code uses them (for a field: writes it, or reads it); at
// most five, each with its reason.
var keepAPI = []keep{
	{"prdrb/internal/sim.ShardGroup.forceMode", "the window-mode test seam: tests force a window released or inline"},
	{"prdrb/internal/sim.PendingEvent.Actor", "network and traffic tests identify event owners by it"},
	{"prdrb/internal/core.Solution.SavedAt", "it holds SolutionDB.Save's now argument, whose signature benchmark/probes.go fixes"},
	{"prdrb/internal/runner.BurstSpec.Start", "benchmark/cell.go and benchmark/ladder.go read it"},
}

type keep struct{ name, why string }

// deadAPICheck is the dead-api row: it prints and counts the unused names
// keepAPI does not list.
func deadAPICheck() float64 {
	expect(len(keepAPI) <= 5 && !slices.ContainsFunc(keepAPI, func(k keep) bool { return k.why == "" }),
		"keepAPI holds %d names; it may hold 5, each with its reason", len(keepAPI))
	dead := unkept(deadAPI("."))
	for _, name := range dead {
		fmt.Println("   ", name)
	}
	return float64(len(dead))
}

// unkept drops the names keepAPI lists.
func unkept(names []string) []string {
	return slices.DeleteFunc(names, func(n string) bool {
		return slices.ContainsFunc(keepAPI, func(k keep) bool { return k.name == n })
	})
}

type importFunc func(path string) (*types.Package, error)

func (f importFunc) Import(path string) (*types.Package, error) { return f(path) }

// deadAPI type-checks the non-test Go of the module at root and returns,
// sorted, each exported package-level name and method declared there that
// no non-test code uses outside its own declaration, as "pkg.Name" or
// "pkg.Type.Method". A method is also used when its type, or a pointer to
// it, satisfies an interface type that non-test code names or spells out
// in a signature it uses (as fmt.Fprintf does io.Writer), or fmt.Stringer,
// which fmt asserts on every value it formats. It also returns the fields
// deadFields names.
func deadAPI(root string) []string {
	fset, pkgs := token.NewFileSet(), map[string]*types.Package{}
	std := importer.ForCompiler(fset, "source", nil)
	conf := types.Config{Importer: importFunc(func(path string) (*types.Package, error) {
		if p := pkgs[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}, Selections: map[*ast.SelectorExpr]*types.Selection{}}
	var files []*ast.File
	// -deps lists each package after those it imports.
	list := output("go", "-C", root, "list", "-deps", "-f", `{{if not .Standard}}{{.ImportPath}} {{.Dir}} {{join .GoFiles " "}}{{end}}`, "./...")
	for _, l := range strings.Split(list, "\n") {
		if f := strings.Fields(l); len(f) > 0 {
			var pf []*ast.File
			for _, name := range f[2:] {
				pf = append(pf, must(parser.ParseFile(fset, filepath.Join(f[1], name), nil, parser.SkipObjectResolution)))
			}
			pkgs[f[0]], files = must(conf.Check(f[0], fset, pf, info)), append(files, pf...)
		}
	}

	own := map[types.Object][]ast.Node{} // the object's declaration and, for a type, its methods' receivers
	var candidates []types.Object
	declare := func(id *ast.Ident, n ast.Node) {
		obj := info.Defs[id]
		if own[obj] = append(own[obj], n); id.IsExported() {
			candidates = append(candidates, obj)
		}
	}
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				declare(fd.Name, fd)
				if t := recvType(info.Defs[fd.Name]); t != nil {
					own[t.Obj()] = append(own[t.Obj()], fd.Recv)
				}
				continue
			}
			for _, s := range d.(*ast.GenDecl).Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					declare(s.Name, s)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						declare(id, s)
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		used[obj] = used[obj] || !slices.ContainsFunc(own[obj], func(n ast.Node) bool { return n.Pos() <= id.Pos() && id.Pos() < n.End() })
	}
	ifaces := []*types.Interface{must(std.Import("fmt")).Scope().Lookup("Stringer").Type().Underlying().(*types.Interface)}
	seen := map[types.Type]bool{}
	for _, tv := range info.Types {
		collectInterfaces(tv.Type, seen, &ifaces)
	}
	var dead []string
	for _, obj := range candidates {
		name, t := obj.Pkg().Path()+"."+obj.Name(), recvType(obj)
		if t != nil {
			name = obj.Pkg().Path() + "." + t.Obj().Name() + "." + obj.Name()
		}
		if !used[obj] && !slices.ContainsFunc(ifaces, func(i *types.Interface) bool { return t != nil && contributes(t, obj.Name(), i) }) {
			dead = append(dead, name)
		}
	}
	dead = append(dead, deadFields(files, info)...)
	slices.Sort(dead)
	return dead
}

// recvType returns the named type a method is declared on, nil for
// anything but a method.
func recvType(obj types.Object) *types.Named {
	sig, _ := obj.Type().(*types.Signature)
	if sig == nil || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// contributes reports whether i has a method called name that t or *t
// provides by implementing i.
func contributes(t *types.Named, name string, i *types.Interface) bool {
	for k := range i.NumMethods() {
		if i.Method(k).Name() == name {
			return types.Implements(t, i) || types.Implements(types.NewPointer(t), i)
		}
	}
	return false
}

// collectInterfaces gathers the interface types t is or spells out in its
// signatures, elements and fields. A named type's underlying type is
// looked into only when it is an interface, so a library struct does not
// bring in every interface its fields hold.
func collectInterfaces(t types.Type, seen map[types.Type]bool, out *[]*types.Interface) {
	if seen[t] {
		return
	}
	seen[t] = true
	var inner []types.Type
	switch t := t.(type) {
	case *types.Named:
		if i, ok := t.Underlying().(*types.Interface); ok {
			*out = append(*out, i)
		}
	case *types.Interface:
		*out = append(*out, t)
	case *types.Signature:
		inner = []types.Type{t.Params(), t.Results()}
	case *types.Tuple:
		for i := range t.Len() {
			inner = append(inner, t.At(i).Type())
		}
	case *types.Struct:
		for i := range t.NumFields() {
			inner = append(inner, t.Field(i).Type())
		}
	case *types.Map:
		inner = []types.Type{t.Key(), t.Elem()}
	case interface{ Elem() types.Type }: // pointer, slice, array, chan
		inner = []types.Type{t.Elem()}
	}
	for _, it := range inner {
		collectInterfaces(it, seen, out)
	}
}

// deadFields returns, as pkg.Owner.field with Owner the type or function
// declaring it, each struct field declared in files outside benchmark/
// that no code in files writes, or none reads. Assigning (also through
// value fields and array elements), inc/dec and composite literals write;
// &x.f, slicing an array field and a pointer-method call on a value field
// write and read; other uses read. Decoding into a value writes all it
// reaches, passing it to fmt, encoding/json or a ...any parameter reads
// all it reaches, and comparing it or keying a map with it reads its own.
func deadFields(files []*ast.File, info *types.Info) (dead []string) {
	formatCall := regexp.MustCompile(`^func \(?\*?(fmt|encoding/json|encoding/binary)\.`)
	decodeCall := regexp.MustCompile(`^func (encoding/json\.Unmarshal|\(\*encoding/json\.Decoder\)\.Decode|encoding/binary\.Read)\(`)
	names, wrote, read := map[*types.Var]string{}, map[*types.Var]bool{}, map[*types.Var]bool{}
	var reach func(t types.Type, mark map[*types.Var]bool, deep bool, seen map[types.Type]bool)
	reach = func(t types.Type, mark map[*types.Var]bool, deep bool, seen map[types.Type]bool) {
		if st, ok := t.Underlying().(*types.Struct); ok && !seen[t] {
			seen[t] = true
			for i := range st.NumFields() {
				mark[st.Field(i).Origin()] = true
				reach(st.Field(i).Type(), mark, deep, seen)
			}
		} else if c, ok := t.Underlying().(interface{ Elem() types.Type }); ok && (deep || is[*types.Array](t)) && !seen[t] {
			seen[t] = true
			reach(c.Elem(), mark, deep, seen) // array, pointer, slice, map value, chan
		}
	}
	counted := map[ast.Expr]bool{} // field selections a write counted, read or not
	var write func(e ast.Expr, reads bool)
	write = func(e ast.Expr, reads bool) {
		sel, _ := ast.Unparen(e).(*ast.SelectorExpr)
		if ix, ok := ast.Unparen(e).(*ast.IndexExpr); ok && is[*types.Array](info.TypeOf(ix.X)) {
			write(ix.X, reads)
		} else if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
			wrote[s.Obj().(*types.Var).Origin()], counted[sel] = true, !reads
			if !is[*types.Pointer](info.TypeOf(sel.X)) {
				write(sel.X, reads)
			}
		}
	}
	for _, f := range files {
		owner := ""
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				owner = n.Name.Name
			case *ast.TypeSpec:
				owner = n.Name.Name
			case *ast.Field:
				for _, id := range n.Names {
					if v, ok := info.Defs[id].(*types.Var); ok && v.IsField() && id.Name != "_" && !strings.HasSuffix(v.Pkg().Path(), "/benchmark") {
						names[v] = v.Pkg().Path() + "." + owner + "." + id.Name
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					write(l, false)
				}
			case *ast.IncDecStmt:
				write(n.X, false)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					write(n.X, true)
				}
			case *ast.SliceExpr:
				if is[*types.Array](info.TypeOf(n.X)) {
					write(n.X, true)
				}
			case *ast.SelectorExpr:
				if s := info.Selections[n]; s != nil && s.Kind() == types.FieldVal && !counted[n] {
					read[s.Obj().(*types.Var).Origin()] = true
				} else if s != nil && s.Kind() == types.MethodVal && is[*types.Pointer](s.Obj().Type().(*types.Signature).Recv().Type()) && !is[*types.Pointer](info.TypeOf(n.X)) {
					write(n.X, true)
				}
			case *ast.CompositeLit:
				for i, e := range n.Elts {
					if kv, ok := e.(*ast.KeyValueExpr); ok && is[*types.Struct](info.TypeOf(n)) {
						wrote[info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()] = true
					} else if st, ok := info.TypeOf(n).Underlying().(*types.Struct); ok {
						wrote[st.Field(i).Origin()] = true
					}
				}
			case *ast.BinaryExpr:
				if n.Op == token.EQL || n.Op == token.NEQ {
					reach(info.TypeOf(n.X), read, false, map[types.Type]bool{})
				}
			case *ast.MapType:
				reach(info.TypeOf(n.Key), read, false, map[types.Type]bool{})
			case *ast.CallExpr:
				sig, _ := info.TypeOf(n.Fun).Underlying().(*types.Signature)
				fn := ""
				if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
					fn = types.ObjectString(info.Uses[sel.Sel], nil)
				}
				for i := 0; sig != nil && i < len(n.Args); i++ {
					last := sig.Params().Len() - 1
					p := sig.Params().At(min(i, last)).Type()
					if sig.Variadic() && i >= last && !n.Ellipsis.IsValid() {
						p = p.(*types.Slice).Elem()
					} else if !formatCall.MatchString(fn) {
						continue
					}
					if it, ok := p.Underlying().(*types.Interface); ok && it.Empty() {
						mark := read
						if i == last && decodeCall.MatchString(fn) {
							mark = wrote
						}
						reach(info.TypeOf(n.Args[i]), mark, true, map[types.Type]bool{})
					}
				}
			}
			return true
		})
	}
	for v, name := range names {
		if !wrote[v] || !read[v] {
			dead = append(dead, name)
		}
	}
	return dead
}

// is reports whether t's underlying type is a T.
func is[T types.Type](t types.Type) bool {
	_, ok := t.Underlying().(T)
	return ok
}
