// Package user calls lib from another package.
package user

import "dreamsim/internal/lint/testdata/src/deadexport/lib"

// Total is called from the main package.
func Total() int {
	var s lib.Shape = lib.Square{Side: 2}
	var err error = lib.Code(1)
	var l lib.Logger = Printer{}
	var b any = Batch{}
	n := lib.Make(1).Get() + s.Area() + lib.Circle{R: 1}.R + l.Log("total")
	if err != nil || b == nil {
		n++
	}
	return n
}

// Printer is handed to Total as a lib.Logger.
type Printer struct{}

// Log is never called on a Printer directly: it satisfies lib.Logger
// under other parameter names.
func (Printer) Log(msg string, vals ...any) (written int) { return len(vals) }

// Batch is used by Total, but its Log takes a slice where lib.Logger's
// is variadic, so it does not satisfy the interface and nothing calls it.
type Batch struct{}

// Log logs a batch of values.
func (Batch) Log(msg string, vals []any) (written int) { return len(vals) } // want `exported Batch.Log has no non-test use`
