// Package d exercises the directive pseudo-analyzer: exceptions must
// name a real analyzer, carry a justification, and suppress a finding.
// A bare directive still suppresses its site (so the maporder finding
// below stays silent) but is itself reported. The fixture runs the
// full suite, so deadexport reports Keys, which no file of the fixture
// calls.
package d

// Keys collects map keys in map order under a bare //lint:maporder
// directive: the append finding is suppressed, the naked directive is
// flagged instead.
func Keys(m map[string]int) []string { // want `exported Keys has no non-test use`
	var keys []string
	// want+1 `//lint:maporder directive needs a justification`
	//lint:maporder
	for k := range m {
		keys = append(keys, k)
	}
	// want+1 `unknown analyzer "bogus" in //lint: directive`
	//lint:bogus this analyzer does not exist
	return keys
}

// count sums map values, which no iteration order changes, so
// maporder has no finding for its directive to suppress. The metering
// directive is not reported: metering does not run over this package.
func count(m map[string]int) int {
	n := 0
	// want+1 `//lint:maporder directive suppresses no finding`
	//lint:maporder the sum does not depend on the iteration order
	for _, v := range m {
		n += v
	}
	//lint:metering a walk outside metering's packages is never checked
	return n
}
