// The allocfree analyzer: static allocation-freedom proofs. A
// function annotated
//
//	//dreamsim:noalloc
//
// in its doc comment is proven allocation-free across its whole call
// closure — every statically reachable function body is checked for
// heap-allocating constructs, so an alloc regression two calls deep
// fails `go run ./cmd/dreamlint ./...` on any machine instead of
// only the perf-smoke bench box (which still backstops the dynamic
// cases below).
//
// The proof rules mirror the runtime zero-alloc gate's contract
// rather than raw "could the compiler ever allocate" pessimism:
//
//   - append and map assignment are amortized-allowed: the pools and
//     free lists they back grow to steady state and the AllocsPerRun
//     gates bound the steady state.
//   - panic(...) arguments and statically-false branches (the
//     `if invariant.Enabled { ... }` idiom) are dead or abort-path
//     code and are skipped.
//   - a call to an external function whose only result is an error
//     (fmt.Errorf, errors.New) is abort-path error construction and
//     is exempt; the simulation stops on these paths.
//   - a func literal passed directly to a call does not escape when
//     the callee provably does not retain that parameter (the
//     sort.Search / List.Each shape); its body is attributed to the
//     caller and checked in place.
//   - calls to a function's own func-typed parameters are silent:
//     each call site proves the argument it passes.
//
// Everything else that allocates or cannot be traced — composite
// literals taken by address, make/new, slice and map literals,
// string concatenation/conversions, variadic argument slices,
// escaping closures, method values, dynamic calls, unvetted external
// calls — is reported at its own site, with the annotated root and
// call path in the message. Interface boxing of non-pointer values
// is the one known allocation class the proof does not see; the
// runtime gate covers it.
package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"strings"
)

// AllocFree proves //dreamsim:noalloc functions allocation-free over
// their static call closure.
var AllocFree = &Analyzer{
	Name: "allocfree",
	Doc: "functions annotated //dreamsim:noalloc must be allocation-free " +
		"across their whole call closure (amortized append/map growth and " +
		"abort-path error construction excepted)",
	RunProgram: runAllocFree,
}

// allocFacts is the per-function allocation view: local events plus
// the outgoing proof obligations.
type allocFacts struct {
	events  []Effect
	callees []calleeRef
}

type calleeRef struct {
	pos token.Pos
	fn  *FuncInfo
}

func runAllocFree(pp *ProgramPass) error {
	prog := pp.Program
	facts := map[*FuncInfo]*allocFacts{}
	reported := map[token.Pos]bool{}
	for _, root := range prog.Ordered {
		if !root.Noalloc {
			continue
		}
		type item struct {
			fi   *FuncInfo
			path []string
		}
		visited := map[*FuncInfo]bool{root: true}
		queue := []item{{root, nil}}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			f := facts[cur.fi]
			if f == nil {
				f = allocFactsOf(prog, cur.fi)
				facts[cur.fi] = f
			}
			for _, ev := range f.events {
				if reported[ev.Pos] {
					continue
				}
				reported[ev.Pos] = true
				via := ""
				if len(cur.path) > 0 {
					via = " via " + strings.Join(cur.path, " -> ")
				}
				pp.Reportf(ev.Pos, "%s in //dreamsim:noalloc closure of %s%s",
					ev.Desc, root.Name(), via)
			}
			for _, c := range f.callees {
				// A //lint:allocfree directive on the call line prunes
				// the whole subtree behind that edge: the justification
				// covers everything reachable only through it.
				if prog.suppressedAt(pp.Analyzer.Name, c.pos) {
					continue
				}
				if !visited[c.fn] {
					visited[c.fn] = true
					path := append(append([]string{}, cur.path...), c.fn.Name())
					queue = append(queue, item{c.fn, path})
				}
			}
		}
	}
	return nil
}

// allocFactsOf runs the allocation-view walk over one function body.
func allocFactsOf(prog *Program, fi *FuncInfo) *allocFacts {
	w := &allocWalker{prog: prog, fi: fi, f: &allocFacts{}}
	w.block(fi.Decl.Body)
	return w.f
}

type allocWalker struct {
	prog *Program
	fi   *FuncInfo
	f    *allocFacts
}

func (w *allocWalker) event(pos token.Pos, format string, args ...any) {
	w.f.events = append(w.f.events, Effect{Pos: pos, Desc: fmt.Sprintf(format, args...)})
}

func (w *allocWalker) info() *types.Info { return w.fi.Pkg.Info }

// constBool returns the value of a compile-time boolean constant
// expression, if e is one. && and || short-circuits fold when the
// deciding operand is constant, covering the
// `if invariant.Enabled && cond { ... }` guard idiom.
func (w *allocWalker) constBool(e ast.Expr) (val, ok bool) {
	tv, found := w.info().Types[e]
	if found && tv.Value != nil && tv.Value.Kind() == constant.Bool {
		return constant.BoolVal(tv.Value), true
	}
	if be, isBin := ast.Unparen(e).(*ast.BinaryExpr); isBin {
		x, xOK := w.constBool(be.X)
		y, yOK := w.constBool(be.Y)
		switch be.Op {
		case token.LAND:
			if (xOK && !x) || (yOK && !y) {
				return false, true
			}
		case token.LOR:
			if (xOK && x) || (yOK && y) {
				return true, true
			}
		}
	}
	return false, false
}

func (w *allocWalker) block(b *ast.BlockStmt) {
	if b == nil {
		return
	}
	for _, st := range b.List {
		w.stmt(st)
	}
}

func (w *allocWalker) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.IfStmt:
		w.stmtOpt(st.Init)
		if val, ok := w.constBool(st.Cond); ok {
			// The `if invariant.Enabled { ... }` idiom: the dead
			// branch is eliminated by the compiler and skipped here.
			if val {
				w.block(st.Body)
			} else {
				w.stmtOpt(st.Else)
			}
			return
		}
		w.expr(st.Cond)
		w.block(st.Body)
		w.stmtOpt(st.Else)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			w.expr(r)
		}
	case *ast.AssignStmt:
		for _, lhs := range st.Lhs {
			// Map assignment is amortized-allowed; still check the
			// key expression.
			if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
				w.expr(ix.X)
				w.expr(ix.Index)
				continue
			}
			w.expr(lhs)
		}
		for _, rhs := range st.Rhs {
			w.expr(rhs)
		}
	case *ast.IncDecStmt:
		w.expr(st.X)
	case *ast.ExprStmt:
		w.expr(st.X)
	case *ast.SendStmt:
		w.expr(st.Chan)
		w.expr(st.Value)
	case *ast.GoStmt:
		w.event(st.Pos(), "go statement allocates a goroutine")
		w.expr(st.Call)
	case *ast.DeferStmt:
		// Open-coded defers do not allocate; the call's own
		// arguments and target are still checked.
		w.expr(st.Call)
	case *ast.ForStmt:
		w.stmtOpt(st.Init)
		if st.Cond != nil {
			w.expr(st.Cond)
		}
		w.stmtOpt(st.Post)
		w.block(st.Body)
	case *ast.RangeStmt:
		w.expr(st.X)
		w.block(st.Body)
	case *ast.SwitchStmt:
		w.stmtOpt(st.Init)
		if st.Tag != nil {
			w.expr(st.Tag)
		}
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				w.expr(e)
			}
			for _, s := range cc.Body {
				w.stmt(s)
			}
		}
	case *ast.TypeSwitchStmt:
		w.stmtOpt(st.Init)
		w.stmtOpt(st.Assign)
		for _, c := range st.Body.List {
			cc := c.(*ast.CaseClause)
			for _, s := range cc.Body {
				w.stmt(s)
			}
		}
	case *ast.SelectStmt:
		for _, c := range st.Body.List {
			cc := c.(*ast.CommClause)
			w.stmtOpt(cc.Comm)
			for _, s := range cc.Body {
				w.stmt(s)
			}
		}
	case *ast.BlockStmt:
		w.block(st)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						w.expr(v)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		w.stmt(st.Stmt)
	}
}

func (w *allocWalker) stmtOpt(st ast.Stmt) {
	if st != nil {
		w.stmt(st)
	}
}

func (w *allocWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		w.call(e)
	case *ast.FuncLit:
		// A func literal outside a direct argument position: a
		// capture-free literal compiles to a static closure and never
		// allocates; a capturing one allocates when evaluated.
		if caps := capturesOf(w.info(), w.fi.Pkg.Types, e); len(caps) > 0 {
			w.event(e.Pos(), "func literal capturing %s allocates a closure", strings.Join(caps, ", "))
		}
	case *ast.CompositeLit:
		if t := w.info().TypeOf(e); t != nil {
			switch t.Underlying().(type) {
			case *types.Slice:
				w.event(e.Pos(), "slice literal allocates")
			case *types.Map:
				w.event(e.Pos(), "map literal allocates")
			}
		}
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				w.expr(kv.Value)
				continue
			}
			w.expr(el)
		}
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if cl, ok := ast.Unparen(e.X).(*ast.CompositeLit); ok {
				w.event(e.Pos(), "&%s composite literal escapes to the heap", typeName(w.info().TypeOf(cl)))
				for _, el := range cl.Elts {
					if kv, ok := el.(*ast.KeyValueExpr); ok {
						w.expr(kv.Value)
						continue
					}
					w.expr(el)
				}
				return
			}
		}
		w.expr(e.X)
	case *ast.BinaryExpr:
		if e.Op == token.ADD {
			if t := w.info().TypeOf(e); t != nil {
				if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					if tv, ok := w.info().Types[ast.Expr(e)]; !ok || tv.Value == nil {
						w.event(e.Pos(), "string concatenation allocates")
					}
				}
			}
		}
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.StarExpr:
		w.expr(e.X)
	case *ast.ParenExpr:
		w.expr(e.X)
	case *ast.SelectorExpr:
		w.expr(e.X)
	case *ast.IndexExpr:
		w.expr(e.X)
		w.expr(e.Index)
	case *ast.IndexListExpr:
		w.expr(e.X)
	case *ast.SliceExpr:
		w.expr(e.X)
		w.expr(e.Low)
		w.expr(e.High)
		w.expr(e.Max)
	case *ast.TypeAssertExpr:
		w.expr(e.X)
	case *ast.KeyValueExpr:
		w.expr(e.Value)
	}
}

// call applies the call rules: builtins, conversions, static edges,
// external allowlist, func-typed arguments, dynamic dispatch.
func (w *allocWalker) call(call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)

	// Conversions.
	if tv, ok := w.info().Types[call.Fun]; ok && tv.IsType() {
		w.conversion(call, tv.Type)
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := w.info().Uses[id].(*types.Builtin); ok {
			w.builtin(call, b.Name())
			return
		}
	}

	// Direct func literal call: attribute the body.
	if lit, ok := fun.(*ast.FuncLit); ok {
		for _, a := range call.Args {
			w.expr(a)
		}
		w.block(lit.Body)
		return
	}

	// Call of one of our own func-typed parameters: each caller
	// proves the value it passes.
	if obj := identObjOf(w.info(), fun); obj != nil && w.fi.paramIndex(obj) >= 0 {
		for _, a := range call.Args {
			w.expr(a)
		}
		return
	}

	callee := StaticCallee(w.info(), call)
	if callee == nil {
		w.event(call.Pos(), "dynamic call of %s cannot be proven allocation-free", exprText(fun))
		for _, a := range call.Args {
			w.expr(a)
		}
		return
	}

	cfi := w.prog.FuncOf(callee)
	if cfi == nil {
		// External function: abort-path error construction is
		// exempt, a small allowlist is known allocation-free, the
		// rest cannot be proven.
		if isErrorConstructor(callee) {
			return // the whole subtree is abort-path
		}
		if !externalAllowed(callee) {
			w.event(call.Pos(), "call to %s (outside the checked program) cannot be proven allocation-free",
				shortFuncName(callee))
			for _, a := range call.Args {
				w.expr(a)
			}
			return
		}
	} else if len(cfi.Decl.Body.List) > 0 {
		w.f.callees = append(w.f.callees, calleeRef{pos: call.Pos(), fn: cfi})
	}

	// Variadic argument slices.
	sig := callee.Type().(*types.Signature)
	if sig.Variadic() && !call.Ellipsis.IsValid() {
		fixed := sig.Params().Len() - 1
		if len(call.Args) > fixed && !(cfi != nil && len(cfi.Decl.Body.List) == 0) {
			w.event(call.Pos(), "variadic call to %s allocates its argument slice", shortFuncName(callee))
		}
	}

	// Arguments, with the func-typed argument rules.
	nParams, _ := calleeParams(callee)
	argBase := 0
	if sig.Recv() != nil {
		argBase = 1
		if sel, ok := fun.(*ast.SelectorExpr); ok {
			w.expr(sel.X)
		}
	}
	for i, a := range call.Args {
		q := argBase + i
		if t := w.info().TypeOf(a); t != nil {
			if _, isFunc := t.Underlying().(*types.Signature); isFunc && q < nParams {
				w.funcArg(call, callee, cfi, q, a)
				continue
			}
		}
		w.expr(a)
	}
}

// funcArg applies the higher-order rules to one func-typed argument.
func (w *allocWalker) funcArg(call *ast.CallExpr, callee *types.Func, cfi *FuncInfo, q int, a ast.Expr) {
	arg := ast.Unparen(a)

	retains, calls := true, true // unknown callee: assume the worst
	if cfi != nil {
		retains = cfi.Summary.RetainsParam[q]
		calls = cfi.Summary.CallsParam[q]
	} else if externalNonRetaining(callee) {
		retains = false
	}

	if lit, ok := arg.(*ast.FuncLit); ok {
		caps := capturesOf(w.info(), w.fi.Pkg.Types, lit)
		if retains && len(caps) > 0 {
			w.event(a.Pos(), "func literal capturing %s escapes via call to %s",
				strings.Join(caps, ", "), shortFuncName(callee))
		}
		// The literal's body runs as part of this closure either way.
		w.block(lit.Body)
		return
	}

	// A bound method value x.m allocates a closure.
	if sel, ok := arg.(*ast.SelectorExpr); ok {
		if s, ok := w.info().Selections[sel]; ok && s.Kind() == types.MethodVal {
			w.event(a.Pos(), "method value %s allocates a closure", exprText(arg))
			return
		}
	}

	// A reference to a declared function: prove its body if the
	// callee may call it.
	if f, ok := identObjOf(w.info(), arg).(*types.Func); ok {
		if calls {
			if ffi := w.prog.FuncOf(f); ffi != nil {
				w.f.callees = append(w.f.callees, calleeRef{pos: a.Pos(), fn: ffi})
			} else {
				w.event(a.Pos(), "func value %s passed to %s cannot be proven allocation-free",
					shortFuncName(f), shortFuncName(callee))
			}
		}
		return
	}

	// Forwarding one of our own parameters: the outer caller proves it.
	if obj := identObjOf(w.info(), arg); obj != nil && w.fi.paramIndex(obj) >= 0 {
		return
	}

	// Any other func value (a field, a local): it is only dangerous
	// here if the callee may actually call it.
	if calls {
		w.event(a.Pos(), "untraceable func value %s passed to %s, which may call it",
			exprText(arg), shortFuncName(callee))
	}
	w.expr(arg)
}

func (w *allocWalker) conversion(call *ast.CallExpr, to types.Type) {
	if len(call.Args) != 1 {
		return
	}
	from := w.info().TypeOf(call.Args[0])
	if from != nil {
		tb, tOK := to.Underlying().(*types.Basic)
		_, fromSlice := from.Underlying().(*types.Slice)
		toSlice, toIsSlice := to.Underlying().(*types.Slice)
		fb, fOK := from.Underlying().(*types.Basic)
		switch {
		case tOK && tb.Info()&types.IsString != 0 && fromSlice:
			w.event(call.Pos(), "string(...) conversion from a slice allocates")
		case toIsSlice && fOK && fb.Info()&types.IsString != 0:
			w.event(call.Pos(), "[]%s(...) conversion from a string allocates", typeName(toSlice.Elem()))
		}
	}
	w.expr(call.Args[0])
}

func (w *allocWalker) builtin(call *ast.CallExpr, name string) {
	switch name {
	case "panic":
		return // abort path: argument construction is exempt
	case "make":
		w.event(call.Pos(), "make allocates")
	case "new":
		w.event(call.Pos(), "new allocates")
	case "print", "println":
		w.event(call.Pos(), "%s allocates", name)
	case "append":
		// Amortized-allowed: pools and free lists grow to steady
		// state; the runtime gate bounds the steady state.
	}
	for _, a := range call.Args {
		w.expr(a)
	}
}

// isErrorConstructor reports an external call whose only result is an
// error — abort-path construction (fmt.Errorf, errors.New, ...).
func isErrorConstructor(f *types.Func) bool {
	sig := f.Type().(*types.Signature)
	if sig.Results().Len() != 1 {
		return false
	}
	return types.Implements(sig.Results().At(0).Type(), errorIface())
}

var cachedErrorIface *types.Interface

func errorIface() *types.Interface {
	if cachedErrorIface == nil {
		cachedErrorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	}
	return cachedErrorIface
}

// externalAllowed lists external (out-of-program) callees known to be
// allocation-free.
func externalAllowed(f *types.Func) bool {
	pkg := f.Pkg()
	if pkg == nil {
		return false
	}
	switch pkg.Path() {
	case "math", "math/bits", "sync/atomic":
		return true
	case "strconv":
		return strings.HasPrefix(f.Name(), "Append")
	case "sort":
		return f.Name() == "Search"
	}
	return false
}

// externalNonRetaining lists external callees known not to retain
// their func-typed parameters (so a closure passed there does not
// escape).
func externalNonRetaining(f *types.Func) bool {
	pkg := f.Pkg()
	return pkg != nil && pkg.Path() == "sort" && f.Name() == "Search"
}

// capturesOf returns the names of variables the literal captures from
// its enclosing function (package-level variables are not captures).
func capturesOf(info *types.Info, pkg *types.Package, lit *ast.FuncLit) []string {
	seen := map[*types.Var]bool{}
	var names []string
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Parent() == pkg.Scope() || v.Parent() == types.Universe {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			seen[v] = true
			names = append(names, v.Name())
		}
		return true
	})
	return names
}

// identObjOf resolves an identifier or selector expression to its
// object.
func identObjOf(info *types.Info, e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return info.ObjectOf(x)
	case *ast.SelectorExpr:
		return info.ObjectOf(x.Sel)
	}
	return nil
}

// exprText renders a short source-like form of simple expressions.
func exprText(e ast.Expr) string {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return exprText(x.X) + "." + x.Sel.Name
	case *ast.IndexExpr:
		return exprText(x.X) + "[...]"
	case *ast.CallExpr:
		return exprText(x.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + exprText(x.X)
	}
	return "expression"
}

// shortFuncName renders pkg.Fn or (pkg.T).M.
func shortFuncName(f *types.Func) string {
	sig := f.Type().(*types.Signature)
	if recv := sig.Recv(); recv != nil {
		return fmt.Sprintf("(%s).%s", typeName(recv.Type()), f.Name())
	}
	if f.Pkg() != nil {
		return f.Pkg().Name() + "." + f.Name()
	}
	return f.Name()
}

// typeName renders a type without its package path.
func typeName(t types.Type) string {
	if t == nil {
		return "?"
	}
	return types.TypeString(t, func(p *types.Package) string { return p.Name() })
}
