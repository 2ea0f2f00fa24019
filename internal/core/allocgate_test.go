package core

import (
	"runtime"
	"testing"

	"dreamsim/internal/fault"
	"dreamsim/internal/invariant"
	"dreamsim/internal/model"
	"dreamsim/internal/sched"
	"dreamsim/internal/workload"
)

// runAllocTasks is the shorter run of the whole-run allocation gate;
// the longer one has twice as many tasks.
const runAllocTasks = 4000

// maxAllocsPerExtraTask bounds the objects the longer run may allocate
// beyond the shorter one, per extra task. The setup of a run (New's
// configurations, nodes, manager and source, and the manager's entry
// pool) allocates some hundreds of objects whatever the task count, so
// one allocation per placement, discard, suspension or crash shows as
// at least 1 per extra task.
const maxAllocsPerExtraTask = 0.05

// stormScenario is the gate's multi-class scenario, the features of
// the benchmark's burst-mix in small: two classes with bursty arrivals
// and their own areas, popularity and closest-match share, a diurnal
// timeline, a 4x arrival spike and a twenty-crash storm while the
// backlog builds.
const stormScenario = `dreamsim-scenario v1
class batch
  fraction 0.5
  arrival gamma 3
  reqtime 1000 30000 lognormal
  area 800 2000
  popularity 1.2
end
class interactive
  fraction 0.5
  arrival weibull 0.5
  reqtime 100 5000 uniform
  closest-match 0.3
end
timeline
  0 0.5
  50000 1.5
  100000 0.5
end
event spike 20000 30000 4
event storm 5000 20000 20
`

// runAllocShapes are the run shapes of the whole-run allocation gate:
// all four placement criteria, the load-balance tie-break and the
// retry knobs, defragmentation, a task graph, a scenario,
// capabilities and both kinds of fault. Each builds the Params of a
// 100-node run of n tasks; hits, when set, counts the events the
// shape exists for, which the gate requires to happen.
var runAllocShapes = []struct {
	name   string
	params func(t testing.TB, n int) Params
	hits   func(r *Result) int64
}{
	{"partial", func(_ testing.TB, n int) Params { return smallParams(100, n, true) }, nil},
	{"full", func(_ testing.TB, n int) Params { return smallParams(100, n, false) }, nil},
	{"first-fit", func(_ testing.TB, n int) Params {
		p := smallParams(100, n, true)
		p.PolicyOptions.Placement = sched.FirstFit
		return p
	}, nil},
	{"worst-fit", func(_ testing.TB, n int) Params {
		p := smallParams(100, n, true)
		p.PolicyOptions.Placement = sched.WorstFit
		return p
	}, nil},
	{"random-fit", func(_ testing.TB, n int) Params {
		p := smallParams(100, n, true)
		p.PolicyOptions.Placement = sched.RandomFit
		return p
	}, nil},
	{"load-balance", func(_ testing.TB, n int) Params {
		p := smallParams(100, n, true)
		p.PolicyOptions.LoadBalance = true
		return p
	}, nil},
	{"max-sus-retries", func(_ testing.TB, n int) Params {
		p := smallParams(100, n, true)
		p.MaxSusRetries = 3
		return p
	}, func(r *Result) int64 { return r.Counters.DiscardedTasks }},
	{"no-suspension", func(_ testing.TB, n int) Params {
		p := smallParams(100, n, false)
		p.PolicyOptions.DisableSuspension = true
		return p
	}, func(r *Result) int64 { return r.Counters.DiscardedTasks }},
	{"defrag", func(_ testing.TB, n int) Params {
		p := smallParams(100, n, true)
		p.Spec.TaskReqTimeHigh = 2000 // underloaded, so nodes fall idle
		p.DefragThreshold = 2
		return p
	}, func(r *Result) int64 { return r.Phases["defrag"] }},
	{"deps", func(_ testing.TB, n int) Params {
		p := smallParams(100, n, false)
		p.Deps = map[int][]int{}
		for child := 3; child < n; child += 4 {
			p.Deps[child] = []int{child - 3, child / 2}
		}
		return p
	}, nil},
	{"storm-scenario", func(t testing.TB, n int) Params {
		scn, err := workload.ParseScenario(stormScenario)
		if err != nil {
			t.Fatal(err)
		}
		p := smallParams(100, n, true)
		p.Scenario = scn
		return p
	}, func(r *Result) int64 { return r.Counters.NodeCrashes }},
	{"hetero-caps", func(_ testing.TB, n int) Params {
		p := smallParams(100, n, true)
		p.Spec.CapKinds = []string{"bram", "dsp", "hbm"}
		p.Spec.NodeCapProb, p.Spec.ConfigCapProb = 0.6, 0.3
		return p
	}, nil},
	{"reconfig-faults", func(_ testing.TB, n int) Params {
		p := smallParams(100, n, true)
		p.Faults = fault.Plan{ReconfigFaultRate: 0.001}
		return p
	}, func(r *Result) int64 { return r.Counters.ReconfigFaults }},
	{"crashes", func(_ testing.TB, n int) Params {
		p := smallParams(100, n, true)
		p.Faults = fault.Plan{CrashRate: 0.001, MeanDowntime: 500}
		return p
	}, func(r *Result) int64 { return r.Counters.TasksRetried }},
}

// TestWarmRunAllocsPerTask is the whole-run allocation gate: on a run
// context warmed by two runs of 2N tasks, a run of 2N tasks may
// allocate at most maxAllocsPerExtraTask objects per extra task more
// than a run of N. Every event handler of the engine runs in it, so an
// allocation on a path that a run takes per task, per placement or
// per fault shows, also where the path sits behind an interface or a
// handler call. Both runs' Params, the Deps map included, are built
// before the counted region. What a run does once, such as Queue.Reset
// and the final drain, cancels out here; TestDrainZeroAlloc and the
// AllocsPerRun gates of the other packages pin those.
func TestWarmRunAllocsPerTask(t *testing.T) {
	if invariant.Enabled || invariant.RaceEnabled {
		t.Skip("assertions and race instrumentation allocate")
	}
	for _, sh := range runAllocShapes {
		t.Run(sh.name, func(t *testing.T) {
			ctx := NewRunContext()
			short, long := sh.params(t, runAllocTasks), sh.params(t, 2*runAllocTasks)
			short.Scratch, long.Scratch = ctx, ctx
			runMallocs(t, long)
			runMallocs(t, long)
			a, res := runMallocs(t, short)
			b, _ := runMallocs(t, long)
			if sh.hits != nil && sh.hits(res) == 0 {
				t.Fatalf("the %d-task run never took the path the shape exists for", runAllocTasks)
			}
			perTask := (float64(b) - float64(a)) / runAllocTasks
			t.Logf("%d objects at %d tasks, %d at %d", a, runAllocTasks, b, 2*runAllocTasks)
			if perTask > maxAllocsPerExtraTask {
				t.Errorf("a warm run allocates %.3f objects per extra task (%d objects at %d tasks, %d at %d), want at most %.2f",
					perTask, a, runAllocTasks, b, 2*runAllocTasks, maxAllocsPerExtraTask)
			}
		})
	}
}

// runMallocs builds and runs p and returns the heap objects the
// process allocated meanwhile, with the result. As testing.AllocsPerRun
// does, it runs on one thread, so no other goroutine of the test
// binary allocates in the window.
func runMallocs(t *testing.T, p Params) (uint64, *Result) {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := New(p)
	var res *Result
	if err == nil {
		res, err = s.Run()
	}
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs, res
}

// TestDrainZeroAlloc gates the end-of-run drain, which a run reaches
// once. On the tick gate's one-node simulator with arrivals over and
// nothing running, each cycle queues three tasks that fit and one that
// no configuration fits, then lets maybeDrain resolve them: its pass
// places the first, refiles the next two behind it and discards the
// last, and the completions' retries run the other two in turn.
func TestDrainZeroAlloc(t *testing.T) {
	if invariant.Enabled || invariant.RaceEnabled {
		t.Skip("assertions and race instrumentation allocate")
	}
	s, _ := newTickSim(t, fault.Plan{})
	s.arrDone = true
	var tasks [4]model.Task
	cycle := func() {
		now := s.eng.Now()
		for i := range tasks {
			task := &tasks[i]
			if i < len(tasks)-1 {
				task.Init(i, 1000, 0, 50, now)
			} else {
				task.Init(i, 2000, 1, 50, now) // C1 does not exist, and no region is 2000 wide
			}
			s.sus.Add(task)
			s.c.GeneratedTasks++
		}
		s.maybeDrain(now)
		s.RunUntil(nil)
		if s.err != nil {
			t.Fatal(s.err)
		}
		if s.sus.Len() != 0 || tasks[2].Status != model.TaskCompleted || tasks[3].Status != model.TaskDiscarded {
			t.Fatalf("the drain left %d queued, the last fitting task %v and the unfit one %v",
				s.sus.Len(), tasks[2].Status, tasks[3].Status)
		}
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("the end-of-run drain allocates: %.1f allocs/op", avg)
	}
}
