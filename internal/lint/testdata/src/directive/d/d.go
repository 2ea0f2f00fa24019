// Package d exercises the directive pseudo-analyzer: exceptions must
// name a real analyzer and carry a justification. A bare directive
// still suppresses its site (so the maporder finding below stays
// silent) but is itself reported. The fixture runs the full suite, so
// deadexport reports Keys, which no file of the fixture calls.
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
