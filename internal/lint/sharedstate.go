// The sharedstate analyzer: the parallel engine's safety contract,
// checked instead of by-convention. Every closure handed to
// exec.DoWorkers runs concurrently with its siblings, so any mutable
// state it reaches from outside its own frame — captured variables,
// package-level variables, memory behind captured pointers — must be
// either
//
//   - written only through a per-unit slot (indexed by the closure's
//     unit or worker index parameter, like out[i] = v, or by a local
//     copied from one, like `j := u`),
//   - donated per worker (obtained through the recognised
//     `return s[w]` pool shape, like scratch.get(w)),
//   - synchronized (under a sync.Mutex/RWMutex Lock, or via
//     sync/atomic), or
//   - read-only.
//
// Cross-function effects come from the dataflow summaries: a helper
// that writes a package-level variable, or writes through a
// parameter the closure passes captured state to, is flagged at the
// closure's call site with the reaching evidence. Effects through
// interface dispatch and captured function values cannot be
// summarised, so calling a captured func value is itself a finding
// unless serialised under a lock.
//
// internal/exec itself is exempt: the executor's own index-claiming
// writes are the mechanism that makes the contract hold.
package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SharedState flags unsynchronized shared mutable state reachable
// from exec worker closures.
var SharedState = &Analyzer{
	Name: "sharedstate",
	Doc: "closures handed to exec.DoWorkers must " +
		"not write shared state except through per-unit indices, " +
		"per-worker donation, sync/atomic, or a held mutex",
	RunProgram: runSharedState,
}

// isDoWorkers reports whether callee is exec.DoWorkers, the one
// worker-pool entry point, whose final argument is a concurrently-run
// unit closure.
func isDoWorkers(callee *types.Func) bool {
	return callee != nil && callee.Pkg() != nil &&
		pathHasSuffix(callee.Pkg().Path(), "internal/exec") && callee.Name() == "DoWorkers"
}

func runSharedState(pp *ProgramPass) error {
	prog := pp.Program
	for _, fi := range prog.Ordered {
		if pathHasSuffix(fi.Pkg.Path, "internal/exec") {
			continue
		}
		fi := fi
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isDoWorkers(StaticCallee(fi.Pkg.Info, call)) || len(call.Args) == 0 {
				return true
			}
			unit := ast.Unparen(call.Args[len(call.Args)-1])
			lit, ok := unit.(*ast.FuncLit)
			if !ok {
				pp.Reportf(unit.Pos(),
					"unit passed to exec.DoWorkers is not a func literal; its shared-state safety cannot be checked")
				return true
			}
			checkUnit(pp, prog, fi, lit, "exec.DoWorkers")
			return true
		})
	}
	return nil
}

// unitChecker walks one worker closure.
type unitChecker struct {
	pp       *ProgramPass
	prog     *Program
	fi       *FuncInfo // function containing the exec call
	lit      *ast.FuncLit
	execName string

	safe   map[*types.Var]bool     // the closure's int index parameters
	locals map[*types.Var]valClass // closure locals by alias class

	syncDepth int // > 0 while a mutex is statically held
}

type valClass int

const (
	classPure        valClass = iota // local to this unit execution
	classValueCopy                   // the unit's own copy of a captured value
	classWorkerOwned                 // shared memory projected by a safe index
	classShared                      // captured / package-level reachable
)

func checkUnit(pp *ProgramPass, prog *Program, fi *FuncInfo, lit *ast.FuncLit, execName string) {
	c := &unitChecker{
		pp: pp, prog: prog, fi: fi, lit: lit, execName: execName,
		safe:   map[*types.Var]bool{},
		locals: map[*types.Var]valClass{},
	}
	for _, field := range lit.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := fi.Pkg.Info.Defs[name].(*types.Var); ok {
				if b, ok := v.Type().Underlying().(*types.Basic); ok && b.Info()&types.IsInteger != 0 {
					c.safe[v] = true
				}
			}
		}
	}
	c.block(lit.Body)
}

func (c *unitChecker) info() *types.Info { return c.fi.Pkg.Info }

// declaredInLit reports whether v is declared inside the closure.
func (c *unitChecker) declaredInLit(v *types.Var) bool {
	return v.Pos() >= c.lit.Pos() && v.Pos() < c.lit.End()
}

// safeIndex reports whether e is one of the closure's index
// parameters.
func (c *unitChecker) safeIndex(e ast.Expr) bool {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if v, ok := c.info().ObjectOf(id).(*types.Var); ok {
			return c.safe[v]
		}
	}
	return false
}

// classify determines which memory a value gives access to.
func (c *unitChecker) classify(e ast.Expr) valClass {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := c.info().ObjectOf(x).(*types.Var)
		if !ok {
			return classPure
		}
		if c.declaredInLit(v) {
			if cl, ok := c.locals[v]; ok {
				return cl
			}
			return classPure
		}
		return classShared // captured or package-level
	case *ast.SelectorExpr:
		// A qualified package-level variable pkg.V is shared state.
		if v, ok := c.info().Uses[x.Sel].(*types.Var); ok && !v.IsField() {
			return classShared
		}
		base := c.classify(x.X)
		if base == classValueCopy {
			// A pointer-like field copied along with the value still
			// aliases the original's memory.
			if t := c.info().TypeOf(x); t != nil && pointerLike(t) {
				return classShared
			}
		}
		return base
	case *ast.IndexExpr:
		base := c.classify(x.X)
		if base == classShared && c.safeIndex(x.Index) {
			return classWorkerOwned
		}
		if base == classValueCopy {
			if t := c.info().TypeOf(x); t != nil && pointerLike(t) {
				return classShared
			}
		}
		return base
	case *ast.StarExpr:
		return c.classify(x.X)
	case *ast.UnaryExpr:
		return c.classify(x.X)
	case *ast.CallExpr:
		return c.classifyCall(x)
	case *ast.SliceExpr:
		return c.classify(x.X)
	}
	return classPure
}

// bindClass classifies an RHS being bound to a closure local: binding
// a captured value TYPE (struct, array, basic) takes a copy, which is
// the unit's own memory — only its pointer-like fields still reach
// the original.
func (c *unitChecker) bindClass(rhs ast.Expr) valClass {
	cls := c.classify(rhs)
	if cls == classShared {
		if t := c.info().TypeOf(rhs); t != nil && !pointerLike(t) {
			return classValueCopy
		}
	}
	return cls
}

// classifyCall classifies a call result: the recognised pool shape
// (`return s[w]`) projects shared memory down to a per-worker slot.
func (c *unitChecker) classifyCall(call *ast.CallExpr) valClass {
	callee := StaticCallee(c.info(), call)
	if callee == nil {
		return classPure
	}
	cfi := c.prog.FuncOf(callee)
	if cfi == nil || cfi.Summary.Result == nil || cfi.Summary.Result.Param < 0 {
		return classPure
	}
	args := c.calleeArgs(call, callee)
	ra := cfi.Summary.Result
	if ra.Param >= len(args) || ra.IndexedBy >= len(args) {
		return classPure
	}
	if c.classify(args[ra.Param]) == classShared {
		if c.safeIndex(args[ra.IndexedBy]) {
			return classWorkerOwned
		}
		return classShared
	}
	return classPure
}

// calleeArgs assembles the callee-parameter-space argument list
// (receiver first for methods).
func (c *unitChecker) calleeArgs(call *ast.CallExpr, callee *types.Func) []ast.Expr {
	var args []ast.Expr
	if callee.Type().(*types.Signature).Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			args = append(args, sel.X)
		} else {
			args = append(args, nil)
		}
	}
	return append(args, call.Args...)
}

func (c *unitChecker) block(b *ast.BlockStmt) {
	if b == nil {
		return
	}
	entryDepth := c.syncDepth
	for _, st := range b.List {
		c.stmt(st)
	}
	// A Lock held at block exit (locked whole-function with a
	// deferred Unlock) keeps covering the rest of the enclosing list.
	if c.syncDepth < entryDepth {
		c.syncDepth = entryDepth
	}
}

func (c *unitChecker) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(st.X).(*ast.CallExpr); ok {
			if d := c.lockDelta(call); d != 0 {
				c.syncDepth += d
				if c.syncDepth < 0 {
					c.syncDepth = 0
				}
				return
			}
		}
		c.expr(st.X)
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			c.expr(rhs)
		}
		for i, lhs := range st.Lhs {
			if st.Tok == token.DEFINE {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if v, ok := c.info().Defs[id].(*types.Var); ok && i < len(st.Rhs) {
						c.locals[v] = c.bindClass(st.Rhs[i])
						// A local seeded from a safe index (`j := u`)
						// names the same per-unit slot, so it projects
						// per-unit slots too.
						if c.safeIndex(st.Rhs[i]) {
							c.safe[v] = true
						}
					}
				}
				continue
			}
			c.write(lhs)
			// Rebinding a closure-local pointer re-classes it; a safe
			// index reassigned from anything but another safe index
			// (i = 0, not the loop's i++) loses its safety.
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				if v, ok := c.info().ObjectOf(id).(*types.Var); ok && c.declaredInLit(v) && i < len(st.Rhs) {
					c.locals[v] = c.bindClass(st.Rhs[i])
					if st.Tok == token.ASSIGN && c.safe[v] && !c.safeIndex(st.Rhs[i]) {
						delete(c.safe, v)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		c.write(st.X)
	case *ast.DeclStmt:
		if gd, ok := st.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for i, name := range vs.Names {
						if v, ok := c.info().Defs[name].(*types.Var); ok && i < len(vs.Values) {
							c.expr(vs.Values[i])
							c.locals[v] = c.bindClass(vs.Values[i])
						}
					}
				}
			}
		}
	case *ast.IfStmt:
		c.stmtOpt(st.Init)
		c.expr(st.Cond)
		c.block(st.Body)
		c.stmtOpt(st.Else)
	case *ast.ForStmt:
		c.stmtOpt(st.Init)
		if st.Cond != nil {
			c.expr(st.Cond)
		}
		c.stmtOpt(st.Post)
		c.block(st.Body)
	case *ast.RangeStmt:
		c.expr(st.X)
		c.block(st.Body)
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			c.expr(r)
		}
	case *ast.SendStmt:
		c.expr(st.Chan)
		c.expr(st.Value)
	case *ast.DeferStmt:
		if c.lockDelta(st.Call) != 0 {
			return // deferred Unlock: the lock covers the remainder
		}
		c.expr(st.Call)
	case *ast.GoStmt:
		c.expr(st.Call)
	case *ast.SwitchStmt:
		c.stmtOpt(st.Init)
		if st.Tag != nil {
			c.expr(st.Tag)
		}
		for _, cl := range st.Body.List {
			for _, s := range cl.(*ast.CaseClause).Body {
				c.stmt(s)
			}
		}
	case *ast.TypeSwitchStmt:
		c.stmtOpt(st.Init)
		c.stmtOpt(st.Assign)
		for _, cl := range st.Body.List {
			for _, s := range cl.(*ast.CaseClause).Body {
				c.stmt(s)
			}
		}
	case *ast.BlockStmt:
		c.block(st)
	case *ast.LabeledStmt:
		c.stmt(st.Stmt)
	}
}

func (c *unitChecker) stmtOpt(st ast.Stmt) {
	if st != nil {
		c.stmt(st)
	}
}

// lockDelta recognises mutex Lock/Unlock calls: +1, -1, or 0.
func (c *unitChecker) lockDelta(call *ast.CallExpr) int {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return 0
	}
	f, ok := c.info().Uses[sel.Sel].(*types.Func)
	if !ok || f.Pkg() == nil || f.Pkg().Path() != "sync" {
		return 0
	}
	switch f.Name() {
	case "Lock", "RLock":
		return 1
	case "Unlock", "RUnlock":
		return -1
	}
	return 0
}

// write checks one lvalue for an unsynchronized shared write.
func (c *unitChecker) write(lhs ast.Expr) {
	if c.syncDepth > 0 {
		return
	}
	target := c.writeTarget(lhs)
	if target != classShared {
		return
	}
	c.pp.Reportf(lhs.Pos(),
		"%s unit writes shared state through %s without synchronization, a per-unit index, or per-worker donation",
		c.execName, exprText(lhs))
}

// writeTarget classifies the memory an lvalue denotes.
func (c *unitChecker) writeTarget(e ast.Expr) valClass {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, ok := c.info().ObjectOf(x).(*types.Var)
		if !ok {
			return classPure
		}
		if c.declaredInLit(v) {
			return classPure // rebinding a local never races
		}
		return classShared
	case *ast.SelectorExpr:
		return c.classify(x)
	case *ast.IndexExpr:
		base := c.classify(x.X)
		if base == classShared && c.safeIndex(x.Index) {
			return classWorkerOwned
		}
		return base
	case *ast.StarExpr:
		return c.classify(x.X)
	}
	return c.classify(e)
}

// expr checks reads-with-effects: calls.
func (c *unitChecker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		c.callExpr(e)
	case *ast.FuncLit:
		c.block(e.Body)
	case *ast.BinaryExpr:
		c.expr(e.X)
		c.expr(e.Y)
	case *ast.UnaryExpr:
		c.expr(e.X)
	case *ast.StarExpr:
		c.expr(e.X)
	case *ast.ParenExpr:
		c.expr(e.X)
	case *ast.SelectorExpr:
		c.expr(e.X)
	case *ast.IndexExpr:
		c.expr(e.X)
		c.expr(e.Index)
	case *ast.SliceExpr:
		c.expr(e.X)
		c.expr(e.Low)
		c.expr(e.High)
		c.expr(e.Max)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				c.expr(kv.Value)
				continue
			}
			c.expr(el)
		}
	case *ast.TypeAssertExpr:
		c.expr(e.X)
	case *ast.KeyValueExpr:
		c.expr(e.Value)
	}
}

// callExpr applies the call rules inside a unit closure.
func (c *unitChecker) callExpr(call *ast.CallExpr) {
	for _, a := range call.Args {
		c.expr(a)
	}
	if tv, ok := c.info().Types[call.Fun]; ok && tv.IsType() {
		return // conversion
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := c.info().Uses[id].(*types.Builtin); isBuiltin {
			return
		}
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		c.block(lit.Body)
		return
	}
	if c.syncDepth > 0 {
		return // serialised under a held mutex
	}

	callee := StaticCallee(c.info(), call)
	if callee == nil {
		// Dynamic dispatch: a captured func value or an interface
		// method on captured state has unknown effects.
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident, *ast.SelectorExpr:
			if c.classify(funReceiverOrValue(fun)) == classShared {
				c.pp.Reportf(call.Pos(),
					"%s unit calls captured %s, whose effects on shared state cannot be proven; serialise it under a mutex or donate per-worker state",
					c.execName, exprText(fun))
			}
		}
		return
	}
	if callee.Pkg() != nil {
		switch callee.Pkg().Path() {
		case "sync", "sync/atomic":
			return // the synchronization primitives themselves
		}
	}
	cfi := c.prog.FuncOf(callee)
	if cfi == nil {
		return // external (stdlib) call: cannot reach simulator state
	}
	if cfi.Summary.WritesGlobal {
		c.pp.Reportf(call.Pos(), "%s unit calls %s, which writes %s",
			c.execName, cfi.Name(), cfi.Summary.GlobalEvidence.Desc)
	}
	args := c.calleeArgs(call, callee)
	for q, arg := range args {
		if arg == nil || c.classify(arg) != classShared {
			continue
		}
		pw := cfi.Summary.ParamWrites[q]
		if pw == nil {
			continue
		}
		if pw.Plain {
			c.pp.Reportf(call.Pos(),
				"%s unit passes captured %s to %s, which writes through it without a per-worker index",
				c.execName, exprText(arg), cfi.Name())
			continue
		}
		for r := range pw.IndexedBy {
			if r >= len(args) || !c.safeIndex(args[r]) {
				c.pp.Reportf(call.Pos(),
					"%s unit passes captured %s to %s, which writes it at an index that is not this unit's worker or unit index",
					c.execName, exprText(arg), cfi.Name())
				break
			}
		}
	}
}

// funReceiverOrValue returns the expression whose aliasing decides a
// dynamic call's safety: the receiver of a selector, or the func
// value itself.
func funReceiverOrValue(fun ast.Expr) ast.Expr {
	if sel, ok := ast.Unparen(fun).(*ast.SelectorExpr); ok {
		return sel.X
	}
	return fun
}
