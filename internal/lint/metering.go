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
//  2. the steps count returned by reslists List.Each / List.FindMin
//     must not be discarded.
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
			// A bare List.Each/FindMin call throws the steps away.
			if call, ok := n.X.(*ast.CallExpr); ok {
				if name := reslistsWalkName(pass, call); name != "" {
					pass.Reportf(call.Pos(),
						"steps result of List.%s discarded: traversal work must be charged to the counters", name)
				}
			}
		case *ast.AssignStmt:
			// `_ = list.Each(...)` and `x, _ := list.FindMin(...)`
			// discard the steps the same way.
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok {
					continue
				}
				name := reslistsWalkName(pass, call)
				if name == "" {
					continue
				}
				if stepsDiscarded(n, name, i) {
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

// reslistsWalkName returns "Each"/"FindMin" when call is a traversal
// method on a reslists.List, "" otherwise.
func reslistsWalkName(pass *Pass, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (sel.Sel.Name != "Each" && sel.Sel.Name != "FindMin") {
		return ""
	}
	obj := pass.ObjectOf(sel.Sel)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || !pathHasSuffix(fn.Pkg().Path(), "internal/reslists") {
		return ""
	}
	return sel.Sel.Name
}

// stepsDiscarded reports whether the steps result of an Each/FindMin
// call lands in the blank identifier. Each returns (steps); FindMin
// returns (best, steps).
func stepsDiscarded(assign *ast.AssignStmt, name string, rhsIndex int) bool {
	// Multi-value context: lhs positions correspond 1:1 when a single
	// call feeds the statement; otherwise position rhsIndex holds the
	// single result of Each.
	stepsLHS := -1
	if len(assign.Rhs) == 1 && name == "FindMin" && len(assign.Lhs) == 2 {
		stepsLHS = 1
	} else if rhsIndex < len(assign.Lhs) {
		stepsLHS = rhsIndex
	}
	if stepsLHS < 0 || stepsLHS >= len(assign.Lhs) {
		return false
	}
	id, ok := assign.Lhs[stepsLHS].(*ast.Ident)
	return ok && id.Name == "_"
}
