//go:build invariants

package core

import (
	"strings"
	"testing"

	"dreamsim/internal/fault"
	"dreamsim/internal/model"
	"dreamsim/internal/sim"
)

// TestRunCleanUnderInvariants runs both scenarios end to end with the
// runtime assertions compiled in: conservation, area bounds and queue
// monotonicity must all hold on a healthy run.
func TestRunCleanUnderInvariants(t *testing.T) {
	for _, partial := range []bool{false, true} {
		res := mustRun(t, smallParams(8, 150, partial))
		if res.Counters.GeneratedTasks != res.Counters.CompletedTasks+res.Counters.DiscardedTasks {
			t.Fatalf("partial=%v: tasks unaccounted for: %+v", partial, res.Counters)
		}
	}
}

// TestConservationAssert corrupts the task bookkeeping mid-simulator
// and checks debugCheck trips the tagged assertion.
func TestConservationAssert(t *testing.T) {
	s, err := New(smallParams(4, 10, true))
	if err != nil {
		t.Fatal(err)
	}
	s.c.GeneratedTasks = 1 // one task generated, none accounted for
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("broken conservation did not trip the invariant")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "task conservation") {
			t.Fatalf("panic message = %v", r)
		}
	}()
	s.debugCheck()
}

// TestReleaseWithPendingCompletionAsserts: a task released while it
// still holds its completion handle would leave the event pointing at
// a struct the next arrival reuses, so the release asserts.
func TestReleaseWithPendingCompletionAsserts(t *testing.T) {
	p := smallParams(4, 10, true)
	p.Faults = fault.Plan{CrashRate: 0.001, MeanDowntime: 500}
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	task := model.NewTask(0, 10, 0, 5, 0)
	task.CompletionEvent = &sim.Event{Kind: "completion", A: task}
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "completion event pending") {
			t.Fatalf("panic %v, want the pending-completion assertion", r)
		}
	}()
	s.release(task)
}
