package lint

import (
	"go/ast"
	"go/types"
)

// Metering guards the paper's cost model. Every walk over the node
// list, the configurations list, or a node's config-task-pair list
// inside the resource information manager (internal/resinfo) and the
// scheduling policies (internal/sched) must charge the
// SchedulerSearch / HousekeepingSteps counters — those counters ARE
// the paper's Table I / Fig. 9 outputs, and the placement scans that
// skip node blocks are only equivalent to the paper's linear walks
// because they charge the walks' steps. A traversal that forgets to
// meter silently skews every workload figure.
//
// Two shapes are checked:
//
//  1. a function that ranges over []*model.Node, []*model.Config or
//     []*model.Entry must somewhere call one of the metering sinks
//     (search, housekeep, ChargeSearch, ChargeHousekeeping);
//  2. the steps count returned by a reslists List traversal (Each and
//     the closure-free scans BestFit, WorstFit and BestFitBalanced:
//     every List method whose last result is named steps) must not be
//     discarded.
//
// Construction-time and debug-only walks are deliberate exceptions —
// annotate them with //lint:metering and the reason.
var Metering = &Analyzer{
	Name: "metering",
	Doc:  "flag node/config list traversals that do not charge the search/housekeeping counters",
	Scope: func(pkgPath string) bool {
		return pathHasSuffix(pkgPath, "internal/resinfo") ||
			pathHasSuffix(pkgPath, "internal/sched")
	},
	Run: runMetering,
}

// meteringSinks are the Manager methods that charge the run counters.
var meteringSinks = map[string]bool{
	"search": true, "housekeep": true,
	"ChargeSearch": true, "ChargeHousekeeping": true,
}

// meteredElemTypes are the element type names (in internal/model)
// whose slices represent the paper's resource lists.
var meteredElemTypes = map[string]bool{"Node": true, "Config": true, "Entry": true}

func runMetering(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncMetering(pass, fd)
		}
	}
	return nil
}

func checkFuncMetering(pass *Pass, fd *ast.FuncDecl) {
	if meteringSinks[fd.Name.Name] {
		return // the sinks themselves
	}
	var traversals []*ast.RangeStmt
	metered := false

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if isResourceListType(pass.TypeOf(n.X)) {
				traversals = append(traversals, n)
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && meteringSinks[sel.Sel.Name] {
				metered = true
			}
		case *ast.ExprStmt:
			// A bare traversal call throws the steps away.
			if call, ok := n.X.(*ast.CallExpr); ok {
				if name, _ := reslistsWalk(pass, call); name != "" {
					pass.Reportf(call.Pos(),
						"steps result of List.%s discarded: traversal work must be charged to the counters", name)
				}
			}
		case *ast.AssignStmt:
			// `_ = list.Each(...)` and `x, _ := list.BestFit()`
			// discard the steps the same way.
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				name, results := reslistsWalk(pass, call)
				if name == "" {
					continue
				}
				if stepsDiscarded(n, results, i) {
					pass.Reportf(call.Pos(),
						"steps result of List.%s discarded: traversal work must be charged to the counters", name)
				}
			}
		}
		return true
	})

	if metered {
		return
	}
	for _, rs := range traversals {
		pass.Reportf(rs.Pos(),
			"%s walks a resource list but never charges SchedulerSearch/HousekeepingSteps (search/housekeep/Charge*)",
			fd.Name.Name)
	}
}

// isResourceListType reports whether t is []*model.Node,
// []*model.Config or []*model.Entry.
func isResourceListType(t types.Type) bool {
	if t == nil {
		return false
	}
	slice, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	ptr, ok := slice.Elem().Underlying().(*types.Pointer)
	if !ok {
		// Named pointer element types don't occur here; require *T.
		ptr, ok = slice.Elem().(*types.Pointer)
		if !ok {
			return false
		}
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil &&
		pathHasSuffix(obj.Pkg().Path(), "internal/model") &&
		meteredElemTypes[obj.Name()]
}

// reslistsWalk returns the method name and its result count when call
// is a traversal on a reslists.List, a method whose last result is
// named steps, and "" otherwise.
func reslistsWalk(pass *Pass, call *ast.CallExpr) (name string, results int) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", 0
	}
	fn, ok := pass.ObjectOf(sel.Sel).(*types.Func)
	if !ok || fn.Pkg() == nil || !pathHasSuffix(fn.Pkg().Path(), "internal/reslists") {
		return "", 0
	}
	sig := fn.Type().(*types.Signature)
	res := sig.Results()
	if sig.Recv() == nil || !isNamed(sig.Recv().Type(), "List") || res.Len() == 0 || res.At(res.Len()-1).Name() != "steps" {
		return "", 0
	}
	return sel.Sel.Name, res.Len()
}

// isNamed reports whether t, or the type t points to, is named name.
func isNamed(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name
}

// stepsDiscarded reports whether the steps result, the last of a
// traversal's results, lands in the blank identifier.
func stepsDiscarded(assign *ast.AssignStmt, results, rhsIndex int) bool {
	// Multi-value context: lhs positions correspond 1:1 when a single
	// call feeds the statement; otherwise position rhsIndex holds the
	// single result.
	stepsLHS := -1
	if len(assign.Rhs) == 1 && len(assign.Lhs) == results {
		stepsLHS = results - 1
	} else if rhsIndex < len(assign.Lhs) {
		stepsLHS = rhsIndex
	}
	if stepsLHS < 0 || stepsLHS >= len(assign.Lhs) {
		return false
	}
	id, ok := assign.Lhs[stepsLHS].(*ast.Ident)
	return ok && id.Name == "_"
}
