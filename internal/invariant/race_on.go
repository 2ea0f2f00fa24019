//go:build race

package invariant

// RaceEnabled reports whether the binary was built with the race
// detector, whose instrumentation adds allocations that would fail
// the zero-allocs/op gates.
//
//lint:deadexport (c) test support: tests of seven packages skip their allocation gates under -race; the value is build-tagged
const RaceEnabled = true
