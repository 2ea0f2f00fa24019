package lint

import (
	"go/ast"
	"go/types"
)

// MapOrder flags `for range` loops over maps whose bodies have
// order-dependent effects. Go randomises map iteration order, so a
// map-range that appends to a slice, writes output, or feeds a
// metric/figure produces a different byte stream every run — exactly
// the nondeterminism the results pipeline must never exhibit.
//
// Order-insensitive bodies (sums, counting, set/map writes, deletes)
// pass. The sanctioned sorted-keys idiom also passes: a body that
// only appends to slices which are subsequently passed to a sort or
// slices call in the same function is recognised as "sorted before
// use". Anything else needs the keys sorted first or a
// //lint:maporder justification.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flag order-dependent iteration over maps (append/output/metric effects)",
	Run:  runMapOrder,
}

// outputSinkMethods are method names whose invocation inside a
// map-range body makes iteration order observable: stream writers,
// printers, encoders, and the metric/figure accumulators
// (monitor.Recorder.Observe, ...).
var outputSinkMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
	"Sprintf": false, // pure; result ordering is the caller's problem
	"Encode":  true, "EncodeElement": true,
	"Add": true, "Observe": true, "Record": true, "Sample": true,
}

func runMapOrder(pass *Pass) error {
	for _, f := range pass.Files {
		// Walk function by function so the sorted-after check can see
		// the statements that follow each range loop.
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				rs, ok := n.(*ast.RangeStmt)
				if !ok {
					return true
				}
				t := pass.TypeOf(rs.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); !isMap {
					return true
				}
				checkMapRange(pass, fd, rs)
				return true
			})
		}
	}
	return nil
}

// checkMapRange classifies the body of one range-over-map statement.
func checkMapRange(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	var appendTargets []types.Object // local slices appended to
	unsortable := false              // append target not a plain local
	sink := ""                       // first output/metric call seen

	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			if fun.Name == "append" && pass.isBuiltin(fun) {
				if obj := appendTargetObject(pass, call); obj != nil {
					appendTargets = append(appendTargets, obj)
				} else {
					unsortable = true
				}
			}
		case *ast.SelectorExpr:
			if outputSinkMethods[fun.Sel.Name] {
				sink = fun.Sel.Name
				return false
			}
		}
		return true
	})

	switch {
	case sink != "":
		pass.Reportf(rs.Pos(),
			"map iteration feeds %s: output order follows Go's randomised map order; iterate sorted keys instead",
			sink)
	case unsortable:
		pass.Reportf(rs.Pos(),
			"map iteration appends to a non-local destination in map order; iterate sorted keys instead")
	case len(appendTargets) > 0:
		for _, obj := range appendTargets {
			if !sortedAfter(pass, fd, rs, obj) {
				pass.Reportf(rs.Pos(),
					"map iteration appends to %q in map order and %q is never sorted afterwards; sort it or iterate sorted keys",
					obj.Name(), obj.Name())
				return
			}
		}
	}
}

// isBuiltin reports whether ident resolves to a universe-scope
// builtin (so a local function named "append" is not mistaken).
func (p *Pass) isBuiltin(id *ast.Ident) bool {
	obj := p.ObjectOf(id)
	_, ok := obj.(*types.Builtin)
	return ok
}

// appendTargetObject returns the local variable receiving an
// append(...) result in the enclosing statement, when the pattern is
// the plain `x = append(x, ...)` form; nil otherwise.
func appendTargetObject(pass *Pass, call *ast.CallExpr) types.Object {
	if len(call.Args) == 0 {
		return nil
	}
	id, ok := call.Args[0].(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.ObjectOf(id)
	if _, isVar := obj.(*types.Var); !isVar {
		return nil
	}
	return obj
}

// sortedAfter reports whether obj is passed to a sort.* or slices.*
// call after the range statement within fd — the collect-then-sort
// idiom (sortedKeys and friends).
func sortedAfter(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found || n == nil || n.Pos() <= rs.End() {
			return !found
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		if pn, isPkg := pass.ObjectOf(pkgID).(*types.PkgName); !isPkg ||
			(pn.Imported().Path() != "sort" && pn.Imported().Path() != "slices") {
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && pass.ObjectOf(id) == obj {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
