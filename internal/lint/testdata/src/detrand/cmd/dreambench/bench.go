// Package main is a detrand fixture standing in for a host-timing
// harness under cmd/. No package is exempt by its import path, so its
// wall-clock reads are reported like any other; a legitimate site
// carries a //lint:detrand justification instead.
package main

import "time"

func main() {
	start := time.Now()   // want `time.Now in simulation code`
	_ = time.Since(start) // want `time.Since in simulation code`
}
