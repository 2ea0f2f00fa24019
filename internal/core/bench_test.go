package core

import (
	"cmp"
	"math"
	"reflect"
	"slices"
	"testing"

	"dreamsim/internal/fault"
	"dreamsim/internal/invariant"
	"dreamsim/internal/model"
	"dreamsim/internal/workload"
)

// emptySource is an exhausted arrival stream: the tick benchmark
// injects its arrivals by hand so each cycle exercises exactly one
// arrival → placement → completion round trip.
type emptySource struct{}

func (emptySource) Next() (*model.Task, bool) { return nil, false }

// tickCases are the run shapes of the tick gate: a fault-free run,
// and a run with fault injection on, whose placements set each task's
// completion handle and whose completions clear it. The injector is
// never started, so no fault fires.
var tickCases = []struct {
	name   string
	faults fault.Plan
}{
	{"plain", fault.Plan{}},
	{"faulted", fault.Plan{CrashRate: 0.001, MeanDowntime: 500}},
}

// newTickSim builds a one-node, one-configuration simulator whose
// steady state is the hot scheduler tick: every injected task hits the
// Allocation phase (the configuration stays resident and idle between
// cycles), runs, and completes. The population is pinned so the single
// configuration fits the node exactly once — no second placement path
// ever opens up.
func newTickSim(tb testing.TB, faults fault.Plan) (*Simulator, *model.Task) {
	tb.Helper()
	p := smallParams(1, 1, true)
	p.Spec.Configs = 1
	p.Spec.ConfigAreaLow, p.Spec.ConfigAreaHigh = 1000, 1000
	p.Spec.NodeAreaLow, p.Spec.NodeAreaHigh = 1500, 1500
	p.Source = emptySource{}
	p.Faults = faults
	s, err := New(p)
	if err != nil {
		tb.Fatal(err)
	}
	task := model.NewTask(0, 1000, 0, 50, 0)
	return s, task
}

// tickCycle drives one arrival through placement and runs the engine
// until the completion fires; the same task struct is recycled so the
// loop measures the simulator, not task construction.
func tickCycle(tb testing.TB, s *Simulator, task *model.Task) {
	now := s.eng.Now()
	task.Status = model.TaskCreated
	task.AssignedConfig = -1
	task.CreateTime = now
	task.StartTime, task.CompletionTime = -1, -1
	task.CommDelay, task.ConfigDelay = 0, 0
	task.SusRetry, task.Retries = 0, 0
	s.handleArrival(task, now)
	s.RunUntil(nil)
	if s.err != nil {
		tb.Fatal(s.err)
	}
	if task.Status != model.TaskCompleted || task.CompletionEvent != nil {
		tb.Fatalf("tick cycle left task %v with completion handle %p", task.Status, task.CompletionEvent)
	}
}

// BenchmarkTick measures the steady-state scheduler tick — arrival
// handling, the four-phase placement decision, resource mutation and
// the pooled completion event — and must report 0 allocs/op: the event
// queue recycles its events, the run context's bookkeeping is dense
// slices, and decisions are plain values. CI gates on the allocs/op
// column.
func BenchmarkTick(b *testing.B) {
	for _, c := range tickCases {
		b.Run(c.name, func(b *testing.B) {
			s, task := newTickSim(b, c.faults)
			for i := 0; i < 8; i++ {
				tickCycle(b, s, task) // warm the event pool and the resident config
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tickCycle(b, s, task)
			}
		})
	}
}

// TestTickZeroAlloc is the test-suite form of the benchmark gate. On
// the faulted case it first checks that a placement sets the task's
// completion handle.
func TestTickZeroAlloc(t *testing.T) {
	for _, c := range tickCases {
		t.Run(c.name, func(t *testing.T) {
			s, task := newTickSim(t, c.faults)
			if c.faults.Enabled() {
				s.handleArrival(task, 0)
				if task.Status != model.TaskRunning || task.CompletionEvent == nil {
					t.Fatalf("placement left task %v with completion handle %p", task.Status, task.CompletionEvent)
				}
				s.RunUntil(nil)
			}
			if invariant.Enabled || invariant.RaceEnabled {
				return // assertions and race instrumentation allocate
			}
			for i := 0; i < 8; i++ {
				tickCycle(t, s, task)
			}
			if avg := testing.AllocsPerRun(200, func() { tickCycle(t, s, task) }); avg != 0 {
				t.Fatalf("scheduler tick allocates: %.1f allocs/op", avg)
			}
		})
	}
}

// TestScratchReuseAcrossRuns pins the run-context contract: a stream
// of runs sharing one donated RunContext produces results equal to
// fresh-context runs (Report, Counters, Classes and Phases), including
// when consecutive runs change population size, task count and feature
// set (the grow-and-clear paths), and when the task free list the
// context keeps has to grow, shrink or be dropped by a failed run.
func TestScratchReuseAcrossRuns(t *testing.T) {
	scn, err := workload.ParseScenario(collidingScenario)
	if err != nil {
		t.Fatal(err)
	}
	classed := smallParams(30, 500, true)
	classed.Scenario = scn
	faulted := smallParams(20, 400, true)
	faulted.Faults = fault.Plan{CrashRate: 0.002, MeanDowntime: 150, ReconfigFaultRate: 0.001}
	deps := smallParams(10, 300, false)
	deps.Deps = map[int][]int{}
	for child := 3; child < 300; child += 4 {
		deps.Deps[child] = []int{child - 3, child / 2}
	}
	failing := smallParams(10, 50, true)
	failing.Spec.TaskReqTimeLow, failing.Spec.TaskReqTimeHigh = math.MaxInt64-5, math.MaxInt64-5

	var shapes []Params
	for _, partial := range []bool{true, false} {
		shrunk := smallParams(6, 80, partial)
		shrunk.DefragThreshold = 2
		shapes = append(shapes, smallParams(10, 150, partial), smallParams(25, 3000, partial), shrunk)
	}
	shapes = append(shapes, classed, faulted, deps, failing, smallParams(12, 400, true))

	ctx := NewRunContext()
	for i, base := range shapes {
		donated := base
		donated.Scratch = ctx
		if i == len(shapes)-2 { // the failing run
			for _, p := range []Params{base, donated} {
				if _, err := runOnce(p); err == nil {
					t.Fatalf("shape %d: a run whose tasks complete past the clock succeeded", i)
				}
			}
			if ctx.tasks != nil {
				t.Fatalf("shape %d: a failed run handed %d task structs back to the context", i, len(ctx.tasks))
			}
			continue
		}
		fresh := mustRun(t, base)
		reused := mustRun(t, donated)
		if !reflect.DeepEqual(fresh, reused) {
			t.Fatalf("shape %d: donated-context run diverged from fresh run\nfresh  %+v\nreused %+v", i, fresh, reused)
		}
		if len(ctx.tasks) == 0 {
			t.Fatalf("shape %d: the finished run left the context no task structs", i)
		}
	}
}

// runOnce builds and runs p.
func runOnce(p Params) (*Result, error) {
	s, err := New(p)
	if err != nil {
		return nil, err
	}
	return s.Run()
}

// TestRepeatedRunDrawsEveryTaskFromFreeList: the second of two equal
// runs on one context finds every task struct it needs on the free
// list the first one left, so its source never calls model.NewTask.
func TestRepeatedRunDrawsEveryTaskFromFreeList(t *testing.T) {
	for _, partial := range []bool{false, true} {
		p := smallParams(10, 2000, partial)
		p.Scratch = NewRunContext()
		first := mustRun(t, p)
		allocated := len(p.Scratch.tasks)
		s, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		gen := s.Source().(*workload.ScenarioSource)
		second, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, second) {
			t.Fatalf("partial=%v: the repeated run diverged", partial)
		}
		if fresh := int64(p.Spec.Tasks) - gen.Recycled(); fresh != 0 {
			t.Fatalf("partial=%v: the repeated run allocated %d of %d tasks", partial, fresh, p.Spec.Tasks)
		}
		if got := len(p.Scratch.tasks); got != allocated {
			t.Fatalf("partial=%v: the free list holds %d structs after the repeat, %d before", partial, got, allocated)
		}
	}
}

// susRetryCases are the node-release shapes the suspension-retry
// gate runs. Each builds a one-node simulator whose suspension queue
// holds queueLen tasks resolved to configurations the node never
// hosts, and two tasks, a and b, resolved to one it does: a is
// running, b is queued behind the rest. Every release of the node
// therefore walks the whole queue's metering while only one queued
// task fits.
var susRetryCases = []struct {
	name  string
	build func(tb testing.TB, queueLen int) (s *Simulator, a, b *model.Task)
}{
	{"full", newFullSusRetrySim},
	{"partial", newPartialSusRetrySim},
}

// newFullSusRetrySim builds the full-reconfiguration case: two
// configurations of equal area, so the release offers only the idle
// resident configuration.
func newFullSusRetrySim(tb testing.TB, queueLen int) (s *Simulator, a, b *model.Task) {
	tb.Helper()
	p := smallParams(1, 1, false)
	p.Spec.Configs = 2
	p.Spec.ConfigAreaLow, p.Spec.ConfigAreaHigh = 1000, 1000
	p.Spec.NodeAreaLow, p.Spec.NodeAreaHigh = 1500, 1500
	s = newSusRetrySim(tb, p)
	cfgs := s.mgr.Configs()
	return startSusRetry(tb, s, queueLen, cfgs[0], cfgs[1:])
}

// newPartialSusRetrySim builds the partial-reconfiguration case: Table
// II's 50 configurations at distinct areas and a node that fits about
// half of them, so the release offers an area prefix of the ranked
// buckets. The queue is spread over the configurations the node is too
// small for; a and b use the smallest one.
func newPartialSusRetrySim(tb testing.TB, queueLen int) (s *Simulator, a, b *model.Task) {
	tb.Helper()
	p := smallParams(1, 1, true)
	p.Seed = 4 // the first seed whose 50 areas are distinct
	p.Spec.NodeAreaLow, p.Spec.NodeAreaHigh = 1100, 1100
	s = newSusRetrySim(tb, p)
	cfgs := slices.Clone(s.mgr.Configs())
	slices.SortFunc(cfgs, func(x, y *model.Config) int { return cmp.Compare(x.ReqArea, y.ReqArea) })
	for i := 1; i < len(cfgs); i++ {
		if cfgs[i].ReqArea == cfgs[i-1].ReqArea {
			tb.Fatalf("configurations C%d and C%d share area %d", cfgs[i-1].No, cfgs[i].No, cfgs[i].ReqArea)
		}
	}
	big := slices.IndexFunc(cfgs, func(c *model.Config) bool { return c.ReqArea > 1100 })
	if big < len(cfgs)/4 || big > 3*len(cfgs)/4 {
		tb.Fatalf("the node fits %d of %d configurations, want about half", big, len(cfgs))
	}
	return startSusRetry(tb, s, queueLen, cfgs[0], cfgs[big:])
}

// newSusRetrySim builds a simulator over p without an arrival stream.
func newSusRetrySim(tb testing.TB, p Params) *Simulator {
	tb.Helper()
	p.Source = emptySource{}
	s, err := New(p)
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

// startSusRetry places a running task a resolved to fit, queues
// queueLen tasks spread over the configurations in other, then queues
// b resolved to fit.
func startSusRetry(tb testing.TB, s *Simulator, queueLen int, fit *model.Config, other []*model.Config) (_ *Simulator, a, b *model.Task) {
	tb.Helper()
	a = model.NewTask(0, fit.ReqArea, fit.No, 50, 0)
	s.handleArrival(a, 0)
	if a.Status != model.TaskRunning {
		tb.Fatalf("setup task not placed: %v", a)
	}
	for no := 1; no <= queueLen; no++ {
		cfg := other[no%len(other)]
		t := model.NewTask(no, cfg.ReqArea, cfg.No, 50, 0)
		t.Resolved = cfg
		s.sus.Add(t)
	}
	b = model.NewTask(queueLen+1, fit.ReqArea, fit.No, 50, 0)
	b.Resolved = fit
	s.sus.Add(b)
	s.c.GeneratedTasks += int64(queueLen + 1) // keep task conservation balanced
	return s, a, b
}

// susRetryCycle fires the running task's completion, whose retry walk
// places the queued fitting task, then queues the finished task again
// for the next cycle. It returns the pair swapped.
func susRetryCycle(tb testing.TB, s *Simulator, running, queued *model.Task) (*model.Task, *model.Task) {
	s.eng.Step()
	if s.err != nil {
		tb.Fatal(s.err)
	}
	if queued.Status != model.TaskRunning {
		tb.Fatalf("the release did not place the fitting task: %v", queued)
	}
	running.StartTime, running.CompletionTime = -1, -1
	s.sus.Add(running)
	s.c.GeneratedTasks++ // the finished task re-enters as a new arrival
	return queued, running
}

// BenchmarkSusRetry measures one node release against a 10k-task
// suspension queue in which one task fits, for each case: the walk
// meters all 10k links but visits only the fitting task. It must
// report 0 allocs/op; CI gates on the allocs/op column.
func BenchmarkSusRetry(b *testing.B) {
	for _, c := range susRetryCases {
		b.Run(c.name, func(b *testing.B) {
			s, running, queued := c.build(b, 10000)
			for i := 0; i < 8; i++ {
				running, queued = susRetryCycle(b, s, running, queued)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				running, queued = susRetryCycle(b, s, running, queued)
			}
		})
	}
}

// TestSusRetryZeroAlloc is the test-suite form of the benchmark gate,
// and checks each release is metered as the full walk.
func TestSusRetryZeroAlloc(t *testing.T) {
	for _, c := range susRetryCases {
		t.Run(c.name, func(t *testing.T) {
			s, running, queued := c.build(t, 1000)
			before := s.c.SusRetries
			running, queued = susRetryCycle(t, s, running, queued)
			if got := s.c.SusRetries - before; got != 1001 {
				t.Fatalf("one release metered %d retry steps, want the full queue of 1001", got)
			}
			if invariant.Enabled || invariant.RaceEnabled {
				return // assertions and race instrumentation allocate
			}
			for i := 0; i < 8; i++ {
				running, queued = susRetryCycle(t, s, running, queued)
			}
			if avg := testing.AllocsPerRun(200, func() { running, queued = susRetryCycle(t, s, running, queued) }); avg != 0 {
				t.Fatalf("suspension retry allocates: %.1f allocs/op", avg)
			}
		})
	}
}
