package core

import (
	"strings"
	"testing"

	"dreamsim/internal/fault"
	"dreamsim/internal/model"
	"dreamsim/internal/rng"
	"dreamsim/internal/sim"
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
		nodes := 4 + r.Intn(13)
		tasks := 20 + r.Intn(181)
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
		if err := s.mgr.CheckInvariants(); err != nil {
			t.Fatalf("schedule %d (%s): %v", i, fault.FormatScript(script), err)
		}
		if down := s.mgr.Census().Down; down != 0 {
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

// pauseWithRunning starts a 20-node run with the given fault plan and
// pauses it at the first tick boundary after 200 events. It returns
// the simulator and the tasks running at the pause, at least two.
func pauseWithRunning(t *testing.T, faults fault.Plan) (*Simulator, []*model.Task) {
	t.Helper()
	p := smallParams(20, 400, true)
	p.Faults = faults
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	s.RunUntil(func(_ int64, processed uint64) bool { return processed >= 200 })
	var running []*model.Task
	for _, n := range s.mgr.Nodes() {
		for _, e := range n.Entries {
			if e.Task != nil {
				running = append(running, e.Task)
			}
		}
	}
	if len(running) < 2 {
		t.Fatalf("%d tasks running at the pause, want at least 2", len(running))
	}
	return s, running
}

// TestCompletionHandleCatchesCorruption breaks one running task's
// completion handle at a time and expects checkStructures to fail each
// time.
func TestCompletionHandleCatchesCorruption(t *testing.T) {
	faulted := fault.Plan{CrashRate: 0.002, MeanDowntime: 150}
	cases := []struct {
		name    string
		faults  fault.Plan
		corrupt func(s *Simulator, running []*model.Task)
	}{
		{"nil handle", faulted, func(_ *Simulator, r []*model.Task) { r[0].CompletionEvent = nil }},
		{"handle carrying another task", faulted, func(_ *Simulator, r []*model.Task) {
			r[0].CompletionEvent = r[1].CompletionEvent
		}},
		{"cancelled handle", faulted, func(s *Simulator, r []*model.Task) {
			s.eng.Queue.Remove(r[0].CompletionEvent) // frees the event and drops its payload
		}},
		{"handle on a run without faults", fault.Plan{}, func(_ *Simulator, r []*model.Task) {
			r[0].CompletionEvent = &sim.Event{Kind: "completion", A: r[0]}
		}},
	}
	for _, c := range cases {
		s, running := pauseWithRunning(t, c.faults)
		if err := s.checkStructures(true); err != nil {
			t.Fatalf("%s: the intact run fails its checks: %v", c.name, err)
		}
		c.corrupt(s, running)
		if err := s.checkStructures(true); err == nil || !strings.Contains(err.Error(), "completion") {
			t.Errorf("%s corruption gave %v, want a completion handle failure", c.name, err)
		}
	}
}
