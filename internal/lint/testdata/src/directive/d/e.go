package d

import "time"

// elapsed reads the host clock under a justified directive, which
// suppresses detrand's finding and so is not reported itself. The
// file gives the package a second file of exceptions.
func elapsed(start time.Time) time.Duration {
	//lint:detrand a second file of exceptions for the inventory's order
	return time.Since(start)
}
