// Package d exercises the directive pseudo-analyzer: exceptions must
// name a real analyzer, carry a justification, and suppress a finding.
// A bare directive still suppresses its site (so the detrand finding
// below stays silent) but is itself reported. The fixture runs the
// full suite, so deadexport reports Stamp, which no file of the
// fixture calls.
package d

import "time"

// Stamp reads the host clock under a bare //lint:detrand directive:
// the time.Now finding is suppressed, the naked directive is flagged
// instead.
func Stamp() int64 { // want `exported Stamp has no non-test use`
	// want+1 `//lint:detrand directive needs a justification`
	//lint:detrand
	now := time.Now()
	// want+1 `unknown analyzer "bogus" in //lint: directive`
	//lint:bogus this analyzer does not exist
	return now.Unix()
}

// scale uses time only as a unit type, which detrand accepts, so its
// directive has no finding to suppress.
func scale(d time.Duration) time.Duration {
	// want+1 `//lint:detrand directive suppresses no finding`
	//lint:detrand a duration is a number, not a reading of the host clock
	return d * 2
}
