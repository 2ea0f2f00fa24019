// The deadexport analyzer: every exported function, type, variable,
// constant and method of a non-main package needs a use in a non-test
// file of the loaded packages (the loader never parses _test.go files,
// and `go list ./...` skips testdata). A declaration's references to
// itself do not count, nor do a type's from its own methods. A type is
// also used where a value of it appears; a method, where its type
// implements an interface the program mentions, or error, fmt.Stringer
// or a json (un)marshaler. Struct fields are out of scope. The verdict
// holds only over a whole module (`./...`).
package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DeadExport flags exported identifiers that only tests use.
var DeadExport = &Analyzer{
	Name: "deadexport",
	Doc: "exported functions, types, variables, constants and methods of " +
		"non-main packages must be used by a non-test file (run over ./...)",
	RunProgram: runDeadExport,
}

// implicitInterfaces are the standard library's interfaces that it
// calls without the program naming them, as methodKey renders them.
var implicitInterfaces = []string{
	"Error func()(string)",
	"String func()(string)",
	"MarshalJSON func()([]byte, error)",
	"UnmarshalJSON func([]byte)(error)",
}

func runDeadExport(pp *ProgramPass) error {
	used := map[string]bool{}
	ifaces := map[string][]string{} // method-set string -> methodKeys
	for _, k := range implicitInterfaces {
		ifaces[k] = []string{k}
	}
	for _, pkg := range pp.Program.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				markUses(pkg.Info, decl, used, ifaces)
			}
		}
	}
	for _, pkg := range pp.Program.Pkgs {
		for _, name := range pkg.Types.Scope().Names() {
			if n := declaredType(pkg.Types.Scope().Lookup(name)); n != nil {
				markImplementations(n, ifaces, used)
			}
		}
	}
	report := func(obj types.Object, name string) {
		if obj.Exported() && !used[objKey(obj)] {
			pp.Reportf(obj.Pos(), "exported %s has no non-test use", name)
		}
	}
	for _, pkg := range pp.Program.Pkgs {
		if pkg.Types.Name() == "main" {
			continue
		}
		for _, name := range pkg.Types.Scope().Names() {
			obj := pkg.Types.Scope().Lookup(name)
			report(obj, name)
			if n := declaredType(obj); n != nil {
				for i := 0; i < n.NumMethods(); i++ {
					report(n.Method(i), name+"."+n.Method(i).Name())
				}
			}
		}
	}
	return nil
}

// markUses records the objects one top-level declaration's identifiers
// denote and the named types of its expressions, except the
// declaration itself and, in a method, its receiver's type. It also
// collects every interface type the declaration mentions.
func markUses(info *types.Info, decl ast.Decl, used map[string]bool, ifaces map[string][]string) {
	visit := func(node ast.Node, self, selfType string) {
		mark := func(obj types.Object) {
			if k := objKey(obj); k != self && k != selfType {
				used[k] = true
			}
		}
		ast.Inspect(node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && info.Uses[id] != nil && isPkgLevel(info.Uses[id]) {
				mark(info.Uses[id])
			}
			if e, ok := n.(ast.Expr); ok && info.Types[e].Type != nil {
				walkType(info.Types[e].Type, mark, ifaces)
			}
			return true
		})
	}
	switch d := decl.(type) {
	case *ast.FuncDecl:
		obj, ok := info.Defs[d.Name].(*types.Func)
		if !ok {
			return
		}
		selfType := ""
		if recv := obj.Type().(*types.Signature).Recv(); recv != nil && namedOf(recv.Type()) != nil {
			selfType = objKey(namedOf(recv.Type()).Obj())
		}
		visit(d, objKey(obj), selfType)
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			selfType := ""
			if ts, ok := spec.(*ast.TypeSpec); ok {
				selfType = objKey(info.Defs[ts.Name])
			}
			visit(spec, "", selfType)
		}
	}
}

// walkType marks every named type t mentions, without entering a
// named type's underlying type, and collects its interfaces.
func walkType(t types.Type, mark func(types.Object), ifaces map[string][]string) {
	switch t := types.Unalias(t).(type) {
	case *types.Named:
		if t.Obj().Pkg() != nil {
			mark(t.Origin().Obj())
		}
		if it, ok := t.Underlying().(*types.Interface); ok {
			walkType(it, mark, ifaces)
		}
	case *types.Interface:
		keys := make([]string, t.NumMethods())
		for i := range keys {
			keys[i] = methodKey(t.Method(i))
		}
		ifaces[strings.Join(keys, ";")] = keys
	case *types.Map:
		walkType(t.Key(), mark, ifaces)
		walkType(t.Elem(), mark, ifaces)
	case interface{ Elem() types.Type }: // pointer, slice, array, channel
		walkType(t.Elem(), mark, ifaces)
	case *types.Signature:
		walkType(t.Params(), mark, ifaces)
		walkType(t.Results(), mark, ifaces)
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			walkType(t.At(i).Type(), mark, ifaces)
		}
	}
}

// markImplementations marks the methods by which n or *n implements a
// collected interface. Methods match by methodKey, which names types
// by package path: an interface seen through another package's export
// data holds different objects than n.
func markImplementations(n *types.Named, ifaces map[string][]string, used map[string]bool) {
	mset := types.NewMethodSet(types.NewPointer(n))
	byKey := map[string]*types.Func{}
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj().(*types.Func)
		byKey[methodKey(m)] = m
	}
	for _, keys := range ifaces {
		implements := len(keys) > 0
		for _, k := range keys {
			implements = implements && byKey[k] != nil
		}
		for _, k := range keys {
			if implements {
				used[objKey(byKey[k])] = true
			}
		}
	}
}

// methodKey renders a method without its receiver and parameter names,
// e.g. "UnmarshalJSON func([]byte)(error)".
func methodKey(m *types.Func) string {
	sig := m.Type().(*types.Signature)
	key := m.Name() + " func"
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		parts := make([]string, tuple.Len())
		for i := range parts {
			parts[i] = types.TypeString(tuple.At(i).Type(), nil)
		}
		key += "(" + strings.Join(parts, ", ") + ")"
	}
	if sig.Variadic() {
		key += "..."
	}
	return key
}

// declaredType returns the non-interface named type obj declares, or
// nil.
func declaredType(obj types.Object) *types.Named {
	if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
		if n, ok := tn.Type().(*types.Named); ok && !types.IsInterface(n) {
			return n
		}
	}
	return nil
}

// isPkgLevel reports whether obj is a method or a package-level
// object: the kinds objKey names uniquely.
func isPkgLevel(obj types.Object) bool {
	if f, ok := obj.(*types.Func); ok && f.Type().(*types.Signature).Recv() != nil {
		return true
	}
	return obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope()
}

// namedOf returns the named type behind t or *t, or nil.
func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	return n
}
