package main

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// keepAPI lists the names the dead-api row lets stand although no
// non-test code uses them; at most five, each with its reason.
var keepAPI = []keep{}

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
// which fmt asserts on every value it formats.
func deadAPI(root string) []string {
	fset, pkgs := token.NewFileSet(), map[string]*types.Package{}
	std := importer.ForCompiler(fset, "source", nil)
	conf := types.Config{Importer: importFunc(func(path string) (*types.Package, error) {
		if p := pkgs[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}}
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
