// Cross-function dataflow for the whole-program analyzer allocfree. A
// Program merges every loaded package over the shared token.FileSet
// into one function index plus a package-level call graph, and
// computes a conservative effect Summary per declared function: which
// of its parameters does it call or retain. The single-function
// analyzers keep their per-package Pass; allocfree runs once over the
// Program so a finding two calls deep, or in another package, is
// still attributed to the annotated root that reaches it. deadexport
// also runs over the Program, but reads only its packages.
//
// The summaries are deliberately conservative in the "miss nothing
// we claim to check" direction for the facts allocfree gates on, with
// a documented soundness gap where full precision would need a
// points-to analysis: effects through interface dispatch and through
// function values are not propagated (allocfree instead reports
// dynamic call sites themselves).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A Program is every loaded package merged into one analysis unit.
type Program struct {
	Pkgs []*Package
	Fset *token.FileSet

	// Funcs indexes every function and method declared with a body
	// in any loaded package.
	Funcs map[*types.Func]*FuncInfo

	// byKey bridges object identity across packages: a caller
	// type-checked against export data holds a different *types.Func
	// for the same declaration than the callee package checked from
	// source, so cross-package edges resolve by (path, receiver,
	// name) instead.
	byKey map[string]*FuncInfo

	// Ordered lists the same functions in (filename, position) order
	// so program analyzers iterate deterministically.
	Ordered []*FuncInfo

	fileOf map[string]*filePkg // filename -> owning package + AST
}

type filePkg struct {
	pkg  *Package
	file *ast.File
}

// FuncInfo is one declared function with its effect summary.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Noalloc records a //dreamsim:noalloc annotation in the doc
	// comment: the allocfree analyzer proves the function's whole
	// call closure allocation-free.
	Noalloc bool

	// Params is the receiver (if any) followed by the declared
	// parameters — the index space used by the per-parameter facts.
	Params []*types.Var

	Summary *Summary
}

// Name returns the diagnostic-friendly name, e.g. (*Queue).Push.
func (fi *FuncInfo) Name() string {
	if r := fi.Decl.Recv; r != nil && len(r.List) > 0 {
		return fmt.Sprintf("(%s).%s", types.TypeString(fi.Params[0].Type(), relativeTo(fi.Obj.Pkg())), fi.Obj.Name())
	}
	return fi.Obj.Name()
}

func relativeTo(pkg *types.Package) types.Qualifier {
	return func(other *types.Package) string {
		if other == pkg {
			return ""
		}
		return other.Name()
	}
}

// Effect is one position-addressed fact (an allocation site, a
// dynamic call, ...).
type Effect struct {
	Pos  token.Pos
	Desc string
}

// CallEdge is one static call to another declared function.
type CallEdge struct {
	Pos    token.Pos
	Callee *types.Func
	// ArgParam maps a callee parameter index (receiver = 0 when the
	// callee is a method) to the caller parameter index passed there,
	// for arguments that are plain parameter identifiers. It is how
	// retention and call-through compose across calls.
	ArgParam map[int]int
}

// Summary is the conservative escape/effect summary of one function.
type Summary struct {
	// Calls lists the static in-program call edges in body order.
	Calls []CallEdge

	// CallsParam marks parameters (or values forwarded to them) that
	// may be called as functions.
	CallsParam map[int]bool

	// RetainsParam marks parameters stored into memory that outlives
	// the call: a field, a slice/map element, a package-level
	// variable, a channel, a composite literal, or the return value.
	RetainsParam map[int]bool
}

// noallocDirective matches the annotation in a function doc comment.
const noallocDirective = "//dreamsim:noalloc"

// NewProgram builds the merged function index and computes every
// summary (local pass + fixpoints).
func NewProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:   pkgs,
		Funcs:  map[*types.Func]*FuncInfo{},
		byKey:  map[string]*FuncInfo{},
		fileOf: map[string]*filePkg{},
	}
	for _, pkg := range pkgs {
		if prog.Fset == nil {
			prog.Fset = pkg.Fset
		}
		for _, f := range pkg.Files {
			name := pkg.Fset.Position(f.FileStart).Filename
			prog.fileOf[name] = &filePkg{pkg: pkg, file: f}
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fi := &FuncInfo{Obj: obj, Decl: fd, Pkg: pkg}
				sig := obj.Type().(*types.Signature)
				if recv := sig.Recv(); recv != nil {
					fi.Params = append(fi.Params, recv)
				}
				for i := 0; i < sig.Params().Len(); i++ {
					fi.Params = append(fi.Params, sig.Params().At(i))
				}
				if fd.Doc != nil {
					for _, c := range fd.Doc.List {
						if c.Text == noallocDirective || strings.HasPrefix(c.Text, noallocDirective+" ") {
							fi.Noalloc = true
						}
					}
				}
				prog.Funcs[obj] = fi
				prog.byKey[objKey(obj)] = fi
				prog.Ordered = append(prog.Ordered, fi)
			}
		}
	}
	sort.Slice(prog.Ordered, func(i, j int) bool {
		a := prog.Fset.Position(prog.Ordered[i].Decl.Pos())
		b := prog.Fset.Position(prog.Ordered[j].Decl.Pos())
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	for _, fi := range prog.Ordered {
		prog.summarize(fi)
	}
	prog.fixpoint()
	return prog
}

// FuncOf returns the FuncInfo for a declared function object, or nil.
func (prog *Program) FuncOf(obj *types.Func) *FuncInfo {
	if obj == nil {
		return nil
	}
	obj = obj.Origin() // generic instantiations resolve to the declaration
	if fi, ok := prog.Funcs[obj]; ok {
		return fi
	}
	// Cross-package reference: the caller's view of this function is
	// an export-data object, not the source-checked one we indexed.
	return prog.byKey[objKey(obj)]
}

// objKey identifies a declaration across type-checker instances:
// package path, receiver type name (methods only), object name.
func objKey(obj types.Object) string {
	pkg := obj.Pkg()
	if pkg == nil {
		return obj.Name()
	}
	recv := ""
	if f, ok := obj.(*types.Func); ok {
		if r := f.Type().(*types.Signature).Recv(); r != nil {
			if n := namedOf(r.Type()); n != nil {
				recv = n.Obj().Name()
			}
		}
	}
	return pkg.Path() + "." + recv + "." + obj.Name()
}

// StaticCallee resolves a call expression to the declared function it
// invokes, or nil when the call is dynamic (interface dispatch, a
// func value) or targets a function outside the program.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				if f, ok := sel.Obj().(*types.Func); ok {
					// A method on an interface value is dynamic
					// dispatch, not a static callee.
					if recv := f.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						return nil
					}
					return f
				}
			}
			return nil // field of func type, or a method expression: dynamic
		}
		// Qualified identifier pkg.Func.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// paramIndex returns the index of obj in fi.Params, or -1.
func (fi *FuncInfo) paramIndex(obj types.Object) int {
	v, ok := obj.(*types.Var)
	if !ok {
		return -1
	}
	for i, p := range fi.Params {
		if p == v {
			return i
		}
	}
	return -1
}

// calleeParamCount returns the callee's parameter-space size
// (receiver included) and whether the last slot is variadic.
func calleeParams(obj *types.Func) (n int, variadic bool) {
	sig := obj.Type().(*types.Signature)
	n = sig.Params().Len()
	if sig.Recv() != nil {
		n++
	}
	return n, sig.Variadic()
}

// summarize runs the local (single-function) effect pass.
func (prog *Program) summarize(fi *FuncInfo) {
	s := &Summary{
		CallsParam:   map[int]bool{},
		RetainsParam: map[int]bool{},
	}
	fi.Summary = s
	w := &effectWalker{prog: prog, fi: fi, sum: s}
	w.block(fi.Decl.Body)
}

// effectWalker performs the local effect pass: retention, parameter
// calls and call edges. FuncLit bodies are walked inline — their
// effects (through captures) belong to the declaring function.
type effectWalker struct {
	prog *Program
	fi   *FuncInfo
	sum  *Summary
}

func (w *effectWalker) block(b *ast.BlockStmt) {
	if b == nil {
		return
	}
	for _, st := range b.List {
		w.stmt(st)
	}
}

func (w *effectWalker) stmt(st ast.Stmt) {
	switch st := st.(type) {
	case *ast.AssignStmt:
		for _, lhs := range st.Lhs {
			w.expr(lhs)
		}
		for _, rhs := range st.Rhs {
			w.expr(rhs)
		}
		// Retention: a parameter assigned to anything that is not a
		// plain local escapes this frame.
		for i, lhs := range st.Lhs {
			if i < len(st.Rhs) {
				w.retainIfParam(st.Rhs[i], lhs)
			}
		}
	case *ast.IncDecStmt:
		w.expr(st.X)
	case *ast.ExprStmt:
		w.expr(st.X)
	case *ast.SendStmt:
		w.expr(st.Chan)
		w.expr(st.Value)
		if p := w.fi.paramIndex(w.identObj(st.Value)); p >= 0 {
			w.sum.RetainsParam[p] = true
		}
	case *ast.ReturnStmt:
		w.returnStmt(st)
	case *ast.IfStmt:
		w.stmtOpt(st.Init)
		w.expr(st.Cond)
		w.block(st.Body)
		w.stmtOpt(st.Else)
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
	case *ast.DeferStmt:
		w.expr(st.Call)
	case *ast.GoStmt:
		w.expr(st.Call)
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

func (w *effectWalker) stmtOpt(st ast.Stmt) {
	if st != nil {
		w.stmt(st)
	}
}

// returnStmt records retention of returned parameters.
func (w *effectWalker) returnStmt(st *ast.ReturnStmt) {
	for _, r := range st.Results {
		w.expr(r)
		if p := w.fi.paramIndex(w.identObj(r)); p >= 0 {
			w.sum.RetainsParam[p] = true
		}
	}
}

// identObj resolves a (parenthesised) identifier to its object.
func (w *effectWalker) identObj(e ast.Expr) types.Object {
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		return w.fi.Pkg.Info.ObjectOf(id)
	}
	return nil
}

// retainIfParam records parameter retention for stores into escaping
// lvalues (fields, elements, globals).
func (w *effectWalker) retainIfParam(rhs, lhs ast.Expr) {
	p := w.fi.paramIndex(w.identObj(rhs))
	if p < 0 {
		return
	}
	switch ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		w.sum.RetainsParam[p] = true
	case *ast.Ident:
		if v, ok := w.fi.Pkg.Info.ObjectOf(ast.Unparen(lhs).(*ast.Ident)).(*types.Var); ok &&
			v.Parent() == w.fi.Pkg.Types.Scope() {
			w.sum.RetainsParam[p] = true
		}
	}
}

// expr records call edges, parameter calls/retention inside
// expressions, and recurses.
func (w *effectWalker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	switch e := e.(type) {
	case *ast.CallExpr:
		w.call(e)
	case *ast.FuncLit:
		w.block(e.Body)
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			v := el
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = kv.Value
				w.expr(kv.Key)
			}
			w.expr(v)
			if p := w.fi.paramIndex(w.identObj(v)); p >= 0 {
				w.sum.RetainsParam[p] = true
			}
		}
	case *ast.BinaryExpr:
		w.expr(e.X)
		w.expr(e.Y)
	case *ast.UnaryExpr:
		w.expr(e.X)
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
		w.expr(e.Key)
		w.expr(e.Value)
	}
}

// call records the static call edge with its parameter argument map,
// plus parameter-call and parameter-retention facts.
func (w *effectWalker) call(call *ast.CallExpr) {
	for _, a := range call.Args {
		w.expr(a)
	}
	if tv, ok := w.fi.Pkg.Info.Types[call.Fun]; ok && tv.IsType() {
		return // conversion, not a call
	}
	// Calling one of our own (func-typed) parameters.
	if p := w.fi.paramIndex(w.identObj(call.Fun)); p >= 0 {
		w.sum.CallsParam[p] = true
		return
	}
	w.expr(call.Fun)

	callee := StaticCallee(w.fi.Pkg.Info, call)
	if callee == nil {
		// Builtins have known semantics: only append and panic keep a
		// reference to their (pointer-like) arguments.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := w.fi.Pkg.Info.Uses[id].(*types.Builtin); ok {
				if b.Name() == "append" || b.Name() == "panic" {
					for _, a := range call.Args {
						if p := w.fi.paramIndex(w.identObj(a)); p >= 0 && pointerLike(w.fi.Params[p].Type()) {
							w.sum.RetainsParam[p] = true
						}
					}
				}
				return
			}
		}
		// Dynamic call: a parameter passed to it must be assumed both
		// called and retained.
		for _, a := range call.Args {
			if p := w.fi.paramIndex(w.identObj(a)); p >= 0 {
				w.sum.CallsParam[p] = true
				if pointerLike(w.fi.Params[p].Type()) {
					w.sum.RetainsParam[p] = true
				}
			}
		}
		return
	}
	edge := CallEdge{Pos: call.Pos(), Callee: callee, ArgParam: map[int]int{}}
	nParams, variadic := calleeParams(callee)
	argBase := 0
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := w.fi.Pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if p := w.fi.paramIndex(w.identObj(sel.X)); p >= 0 {
				edge.ArgParam[0] = p
			}
			argBase = 1
		}
	}
	if callee.Type().(*types.Signature).Recv() == nil {
		argBase = 0
	}
	for i, a := range call.Args {
		q := argBase + i
		if q >= nParams {
			break
		}
		if variadic && q == nParams-1 && !call.Ellipsis.IsValid() {
			break // no per-parameter tracking through the variadic tail
		}
		if p := w.fi.paramIndex(w.identObj(a)); p >= 0 {
			edge.ArgParam[q] = p
		}
	}
	w.sum.Calls = append(w.sum.Calls, edge)

	// A parameter passed to a callee outside the program must be
	// assumed retained (and called, if func-typed): we cannot see its
	// body. Known-pure stdlib families are exempted by the analyzers
	// that care.
	if w.prog.FuncOf(callee) == nil {
		for q, p := range edge.ArgParam {
			if q == 0 && callee.Type().(*types.Signature).Recv() != nil {
				continue // method receiver: a use, not a donation
			}
			// A value-typed argument is copied; the callee cannot keep
			// a reference to the caller's parameter through it.
			if pointerLike(w.fi.Params[p].Type()) {
				w.sum.RetainsParam[p] = true
			}
		}
	}
}

// pointerLike reports whether values of t carry references the callee
// could keep (pointers, slices, maps, chans, funcs, interfaces).
func pointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Signature, *types.Interface:
		return true
	}
	return false
}

// fixpoint propagates CallsParam and RetainsParam across static call
// edges until stable.
func (prog *Program) fixpoint() {
	for changed := true; changed; {
		changed = false
		for _, fi := range prog.Ordered {
			s := fi.Summary
			for _, e := range s.Calls {
				cfi := prog.FuncOf(e.Callee)
				if cfi == nil {
					continue
				}
				cs := cfi.Summary
				for q, p := range e.ArgParam {
					if cs.CallsParam[q] && !s.CallsParam[p] {
						s.CallsParam[p] = true
						changed = true
					}
					if cs.RetainsParam[q] && !s.RetainsParam[p] {
						s.RetainsParam[p] = true
						changed = true
					}
				}
			}
		}
	}
}

// suppressedAt is program-wide suppression: a //lint:NAME directive
// on the line, the line above, or in the enclosing function's doc
// comment — in whichever package owns the position.
func (prog *Program) suppressedAt(analyzer string, pos token.Pos) bool {
	position := prog.Fset.Position(pos)
	fp := prog.fileOf[position.Filename]
	if fp == nil {
		return false
	}
	var enclosing *ast.FuncDecl
	for _, decl := range fp.file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
			enclosing = fd
		}
	}
	first, last := docLines(prog.Fset, enclosing)
	return cover(fp.pkg.directives[position.Filename], analyzer, position.Line, first, last)
}

// A ProgramPass provides one whole-program analyzer with the Program.
type ProgramPass struct {
	Analyzer *Analyzer
	Program  *Program

	diags *[]Diagnostic
}

// Reportf records a finding unless a matching //lint: directive in
// the owning package covers the site.
func (pp *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	if pp.Program.suppressedAt(pp.Analyzer.Name, pos) {
		return
	}
	*pp.diags = append(*pp.diags, Diagnostic{
		Pos:      pp.Program.Fset.Position(pos),
		Analyzer: pp.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}
