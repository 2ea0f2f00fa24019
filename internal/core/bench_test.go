package core

import (
	"testing"

	"dreamsim/internal/invariant"
	"dreamsim/internal/model"
)

// emptySource is an exhausted arrival stream: the tick benchmark
// injects its arrivals by hand so each cycle exercises exactly one
// arrival → placement → completion round trip.
type emptySource struct{}

func (emptySource) Next() (*model.Task, bool) { return nil, false }

// newTickSim builds a one-node, one-configuration simulator whose
// steady state is the hot scheduler tick: every injected task hits the
// Allocation phase (the configuration stays resident and idle between
// cycles), runs, and completes. The population is pinned so the single
// configuration fits the node exactly once — no second placement path
// ever opens up.
func newTickSim(tb testing.TB) (*Simulator, *model.Task) {
	tb.Helper()
	p := smallParams(1, 1, true)
	p.Spec.Configs = 1
	p.Spec.ConfigAreaLow, p.Spec.ConfigAreaHigh = 1000, 1000
	p.Spec.NodeAreaLow, p.Spec.NodeAreaHigh = 1500, 1500
	p.Source = emptySource{}
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
	s.eng.Run(func() bool { return s.err != nil })
	if s.err != nil {
		tb.Fatal(s.err)
	}
	if task.Status != model.TaskCompleted {
		tb.Fatalf("tick cycle left task %v", task.Status)
	}
}

// BenchmarkTick measures the steady-state scheduler tick — arrival
// handling, the four-phase placement decision, resource mutation and
// the pooled completion event — and must report 0 allocs/op: the event
// queue recycles its events, the run context's bookkeeping is dense
// slices, and decisions are plain values. CI gates on the allocs/op
// column.
func BenchmarkTick(b *testing.B) {
	s, task := newTickSim(b)
	for i := 0; i < 8; i++ {
		tickCycle(b, s, task) // warm the event pool and the resident config
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tickCycle(b, s, task)
	}
}

// TestTickZeroAlloc is the test-suite form of the benchmark gate.
func TestTickZeroAlloc(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate their message arguments")
	}
	if invariant.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	s, task := newTickSim(t)
	for i := 0; i < 8; i++ {
		tickCycle(t, s, task)
	}
	if avg := testing.AllocsPerRun(200, func() { tickCycle(t, s, task) }); avg != 0 {
		t.Fatalf("scheduler tick allocates: %.1f allocs/op", avg)
	}
}

// TestScratchReuseAcrossRuns pins the run-context contract: a stream
// of runs sharing one donated RunContext produces byte-identical
// results to fresh-context runs, including when consecutive runs
// change population size and feature set (the grow-and-clear paths).
func TestScratchReuseAcrossRuns(t *testing.T) {
	shapes := []Params{
		smallParams(10, 150, true),
		smallParams(25, 300, false),
		smallParams(6, 80, true),
	}
	shapes[2].DefragThreshold = 2

	ctx := NewRunContext()
	for i, base := range shapes {
		fresh := mustRun(t, base)
		donated := base
		donated.Scratch = ctx
		reused := mustRun(t, donated)
		if fresh.Report != reused.Report || fresh.Counters != reused.Counters {
			t.Fatalf("shape %d: donated-context run diverged from fresh run", i)
		}
		if len(fresh.Phases) != len(reused.Phases) {
			t.Fatalf("shape %d: phase histograms diverged", i)
		}
		for k, v := range fresh.Phases {
			if reused.Phases[k] != v {
				t.Fatalf("shape %d: phase %q: %d != %d", i, k, v, reused.Phases[k])
			}
		}
	}
}

// newSusRetrySim builds a one-node full-reconfiguration simulator
// whose suspension queue holds queueLen tasks resolved to a
// configuration the node never hosts, and two tasks, a and b, resolved
// to the one it does: a is running, b is queued behind the rest. Every
// release of the node therefore walks the whole queue's metering while
// only one queued task fits.
func newSusRetrySim(tb testing.TB, queueLen int) (s *Simulator, a, b *model.Task) {
	tb.Helper()
	p := smallParams(1, 1, false)
	p.Spec.Configs = 2
	p.Spec.ConfigAreaLow, p.Spec.ConfigAreaHigh = 1000, 1000
	p.Spec.NodeAreaLow, p.Spec.NodeAreaHigh = 1500, 1500
	p.Source = emptySource{}
	s, err := New(p)
	if err != nil {
		tb.Fatal(err)
	}
	cfgs := s.mgr.Configs()
	a = model.NewTask(0, 1000, 0, 50, 0)
	s.handleArrival(a, 0)
	if a.Status != model.TaskRunning {
		tb.Fatalf("setup task not placed: %v", a)
	}
	for no := 1; no <= queueLen; no++ {
		t := model.NewTask(no, 1000, 1, 50, 0)
		t.Resolved = cfgs[1]
		s.sus.Add(t)
	}
	b = model.NewTask(queueLen+1, 1000, 0, 50, 0)
	b.Resolved = cfgs[0]
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
// suspension queue in which one task fits: the walk meters all 10k
// links but visits only the fitting task. It must report 0 allocs/op;
// CI gates on the allocs/op column.
func BenchmarkSusRetry(b *testing.B) {
	s, running, queued := newSusRetrySim(b, 10000)
	for i := 0; i < 8; i++ {
		running, queued = susRetryCycle(b, s, running, queued)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		running, queued = susRetryCycle(b, s, running, queued)
	}
}

// TestSusRetryZeroAlloc is the test-suite form of the benchmark gate,
// and checks the release is metered as the full walk.
func TestSusRetryZeroAlloc(t *testing.T) {
	s, running, queued := newSusRetrySim(t, 1000)
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
}
