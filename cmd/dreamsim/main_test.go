package main

import (
	"errors"
	"fmt"
	"testing"
)

// TestErrorLine: fail names the command once, whether or not the
// error already starts with the dreamsim package's prefix.
func TestErrorLine(t *testing.T) {
	for _, c := range []struct {
		err  error
		want string
	}{
		{errors.New("dreamsim: negative WindowSamples -5"), "dreamsim: negative WindowSamples -5"},
		{fmt.Errorf("dreamsim: matrix cell 1 nodes/2 tasks: %w", errors.New("core: boom")), "dreamsim: matrix cell 1 nodes/2 tasks: core: boom"},
		{errors.New("open missing.trace: no such file or directory"), "dreamsim: open missing.trace: no such file or directory"},
		{errors.New("core: negative MaxSusRetries -1"), "dreamsim: core: negative MaxSusRetries -1"},
		{errors.New("dreamsimulator: not the prefix"), "dreamsim: dreamsimulator: not the prefix"},
	} {
		if got := errorLine(c.err); got != c.want {
			t.Errorf("errorLine(%q) = %q, want %q", c.err, got, c.want)
		}
	}
}
