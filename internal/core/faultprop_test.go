package core

import (
	"testing"

	"dreamsim/internal/fault"
	"dreamsim/internal/model"
	"dreamsim/internal/rng"
)

// randomFaultSchedule synthesises one scripted fault schedule over a
// population of the given size. Every crash is paired with a later
// recovery, so the population is guaranteed up again once the script
// has fully fired — interleavings in between are unconstrained
// (double crashes, no-op recoveries, overlapping windows).
func randomFaultSchedule(r *rng.RNG, nodes int, horizon int64) []fault.Event {
	var script []fault.Event
	for c := r.Intn(5); c > 0; c-- {
		node := r.Intn(nodes)
		at := r.Int64Range(1, horizon)
		script = append(script,
			fault.Event{At: at, Kind: fault.KindCrash, Node: node},
			fault.Event{At: at + r.Int64Range(1, 5000), Kind: fault.KindRecover, Node: node})
	}
	for c := r.Intn(4); c > 0; c-- {
		script = append(script, fault.Event{At: r.Int64Range(1, horizon), Kind: fault.KindReconfigFault})
	}
	if len(script) == 0 {
		// Keep the fault subsystem engaged even when both draws were 0.
		script = append(script, fault.Event{At: 1, Kind: fault.KindReconfigFault})
	}
	return script
}

// TestFaultPropertyRandomSchedules is the property-based harness:
// many random scripted fault schedules against random small
// workloads, asserting on every one of them that
//
//   - the simulated clock never moves backwards across observed events,
//   - every generated task reaches a terminal state (arrived =
//     completed + discarded + lost; nothing queued or running), and
//   - the resource state satisfies all structural invariants (Eq. 4
//     area bounds included) after the run — and after every event via
//     Debug mode; builds with -tags invariants additionally re-check
//     task conservation and the area bounds inside every state
//     transition, including the crash/recover ones.
func TestFaultPropertyRandomSchedules(t *testing.T) {
	schedules := 200
	if testing.Short() {
		schedules = 25
	}
	r := rng.New(0xfa177)
	for i := 0; i < schedules; i++ {
		nodes := r.IntRange(4, 16)
		tasks := r.IntRange(20, 200)
		script := randomFaultSchedule(r, nodes, int64(tasks)*30)

		p := smallParams(nodes, tasks, r.Bool(0.5))
		p.Seed = r.RandUint64()
		p.Debug = true
		p.Faults = fault.Plan{Script: script}
		p.Retry = fault.RetryPolicy{Budget: r.Int64Range(1, 4)}

		last := int64(-1)
		p.OnEvent = func(kind string, now int64, task *model.Task) {
			if now < last {
				t.Fatalf("schedule %d: clock moved backwards: %q at %d after %d", i, kind, now, last)
			}
			last = now
		}

		s, err := New(p)
		if err != nil {
			t.Fatalf("schedule %d (%s): %v", i, fault.FormatScript(script), err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("schedule %d (%s): %v", i, fault.FormatScript(script), err)
		}

		c := res.Counters
		if c.GeneratedTasks != int64(tasks) {
			t.Fatalf("schedule %d: generated %d of %d tasks", i, c.GeneratedTasks, tasks)
		}
		settled := c.CompletedTasks + c.DiscardedTasks + c.LostTasks
		if settled != c.GeneratedTasks || c.RunningTasks != 0 || c.SuspendedTasks != 0 {
			t.Fatalf("schedule %d (%s): conservation broken: completed %d + discarded %d + lost %d != generated %d (running %d, suspended %d)",
				i, fault.FormatScript(script), c.CompletedTasks, c.DiscardedTasks,
				c.LostTasks, c.GeneratedTasks, c.RunningTasks, c.SuspendedTasks)
		}
		if c.NodeRecoveries > c.NodeCrashes {
			t.Fatalf("schedule %d: %d recoveries for %d crashes", i, c.NodeRecoveries, c.NodeCrashes)
		}
		if err := s.Manager().CheckInvariants(); err != nil {
			t.Fatalf("schedule %d (%s): %v", i, fault.FormatScript(script), err)
		}
		if down := s.Manager().Census().Down; down != 0 {
			t.Fatalf("schedule %d: %d nodes left down despite paired recoveries", i, down)
		}
	}
}

// TestFaultPoissonTermination drives the seeded random fault streams
// (crashes with exponential downtimes plus reconfiguration faults)
// and asserts the run terminates with full task accounting — the
// streams must stop perpetuating themselves once the system drains.
func TestFaultPoissonTermination(t *testing.T) {
	for _, partial := range []bool{false, true} {
		p := smallParams(12, 150, partial)
		p.Debug = true
		p.Faults = fault.Plan{CrashRate: 0.002, MeanDowntime: 200, ReconfigFaultRate: 0.001}
		res := mustRun(t, p)
		c := res.Counters
		if c.CompletedTasks+c.DiscardedTasks+c.LostTasks != c.GeneratedTasks {
			t.Fatalf("partial=%v: conservation broken: %d + %d + %d != %d",
				partial, c.CompletedTasks, c.DiscardedTasks, c.LostTasks, c.GeneratedTasks)
		}
		if c.NodeCrashes == 0 {
			t.Fatalf("partial=%v: crash rate produced no crashes", partial)
		}
		if c.NodeRecoveries != c.NodeCrashes {
			t.Fatalf("partial=%v: %d crashes but %d recoveries (random crashes always schedule recovery)",
				partial, c.NodeCrashes, c.NodeRecoveries)
		}
		if c.DowntimeTicks <= 0 {
			t.Fatalf("partial=%v: crashes charged no downtime", partial)
		}
	}
}

// TestFaultDeterministicRerun re-runs one faulty configuration and
// demands identical counters — the whole point of drawing faults from
// the seeded RNG tree.
func TestFaultDeterministicRerun(t *testing.T) {
	run := func() *Result {
		p := smallParams(10, 120, true)
		p.Faults = fault.Plan{CrashRate: 0.004, MeanDowntime: 150, ReconfigFaultRate: 0.002}
		return mustRun(t, p)
	}
	a, b := run(), run()
	if a.Counters != b.Counters {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a.Counters, b.Counters)
	}
	if a.Counters.NodeCrashes == 0 {
		t.Fatal("fault stream produced nothing; the test is vacuous")
	}
}

// TestFaultZeroPlanIdentical locks the subsystem's zero-cost contract:
// a zero fault plan must leave every counter and metric of a run
// exactly where a fault-free build would put them (the fault RNG
// stream is only split off on faulty runs).
func TestFaultZeroPlanIdentical(t *testing.T) {
	base := mustRun(t, smallParams(20, 300, true))
	p := smallParams(20, 300, true)
	p.Faults = fault.Plan{}
	p.Retry = fault.RetryPolicy{Budget: 9} // knobs alone must not engage anything
	faulty := mustRun(t, p)
	if base.Counters != faulty.Counters {
		t.Fatalf("zero fault plan changed counters:\n%+v\n%+v", base.Counters, faulty.Counters)
	}
	if base.Report != faulty.Report {
		t.Fatalf("zero fault plan changed the report")
	}
}

// TestFaultRetryBudgetExhaustion pins the retry path's budget
// semantics: a schedule that keeps crashing the whole population
// around the backoff windows must eventually lose tasks, and lost
// tasks must still satisfy conservation.
func TestFaultRetryBudgetExhaustion(t *testing.T) {
	// Crash every node repeatedly with a tight budget and an enormous
	// mean downtime relative to backoff, so displaced tasks land on
	// nodes that are about to crash again.
	p := smallParams(4, 60, true)
	p.Debug = true
	p.Faults = fault.Plan{CrashRate: 0.05, MeanDowntime: 400}
	p.Retry = fault.RetryPolicy{Budget: 1, BackoffBase: 1, BackoffCap: 2}
	res := mustRun(t, p)
	c := res.Counters
	if c.CompletedTasks+c.DiscardedTasks+c.LostTasks != c.GeneratedTasks {
		t.Fatalf("conservation broken with lost tasks: %d + %d + %d != %d",
			c.CompletedTasks, c.DiscardedTasks, c.LostTasks, c.GeneratedTasks)
	}
	if c.LostTasks == 0 {
		t.Fatal("aggressive crash plan lost no tasks; budget path untested")
	}
	if c.TasksRetried == 0 {
		t.Fatal("no retries recorded")
	}
}
