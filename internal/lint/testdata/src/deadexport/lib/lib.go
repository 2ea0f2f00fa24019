// Package lib exercises the deadexport analyzer: its exports are used
// by package user and by the main package under cmd/, by its own
// tests, or by nothing.
package lib

// TestOnly is called only from lib_test.go.
func TestOnly() int { return 1 } // want `exported TestOnly has no non-test use`

// Countdown's only caller is itself.
func Countdown(n int) int { // want `exported Countdown has no non-test use`
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// Helper is named only by its own declaration, its own methods and
// lib_test.go.
type Helper struct { // want `exported Helper has no non-test use`
	next *Helper
}

// Next is called only from lib_test.go.
func (h *Helper) Next() *Helper { return h.next } // want `exported Helper.Next has no non-test use`

// Value is used by package user through Make, which it never names.
type Value struct{ n int }

// Make is called from package user.
func Make(n int) Value { return Value{n: n} }

// Get is called from package user.
func (v Value) Get() int { return v.n }

// Peek is called only from lib_test.go.
func (v Value) Peek() int { return v.n } // want `exported Value.Peek has no non-test use`

// String satisfies fmt.Stringer, which formatting calls without the
// program naming it.
func (v Value) String() string { return "value" }

// Shape is an interface package user calls through.
type Shape interface{ Area() int }

// Square is handed to user as a Shape.
type Square struct{ Side int }

// Area is never called on a Square directly: it satisfies Shape.
func (s Square) Area() int { return s.Side * s.Side }

// Kept is test support that a //lint:deadexport reason keeps.
//
//lint:deadexport fixture: the directive suppresses the finding
func Kept() {}

// Limit is a constant only lib_test.go reads.
const Limit = 3 // want `exported Limit has no non-test use`

// Registry is a variable only lib_test.go reads.
var Registry = map[string]int{} // want `exported Registry has no non-test use`

// Code is an error that package user holds; the standard library
// calls its methods without the program naming them.
type Code int

// Error satisfies error.
func (c Code) Error() string { return "code" }

// MarshalJSON satisfies json.Marshaler.
func (c Code) MarshalJSON() ([]byte, error) { return []byte("0"), nil }

// UnmarshalJSON satisfies json.Unmarshaler.
func (c *Code) UnmarshalJSON([]byte) error { return nil }

// Circle is used by package user, but its Area takes a scale, so it
// does not satisfy Shape and only lib_test.go calls it.
type Circle struct{ R int }

// Area scales the circle's area.
func (c Circle) Area(scale int) int { return scale * c.R * c.R } // want `exported Circle.Area has no non-test use`

// Logger is an interface package user assigns to; its method names its
// parameters and ends in a variadic one.
type Logger interface {
	Log(format string, args ...any) (n int)
}
