package main

import "time"

// epoch anchors the suite's host clock: every timestamp it records is
// monotonic nanoseconds since process start. These two functions are
// the suite's only reads of the wall clock.
var epoch = hostNow()

// hostNow reads the host clock.
//
//lint:detrand the benchmark measures host time; no value it reads feeds simulated state
func hostNow() time.Time { return time.Now() }

// now returns host nanoseconds since epoch.
//
//lint:detrand the benchmark measures host time; no value it reads feeds simulated state
func now() int64 { return int64(time.Since(epoch)) }
