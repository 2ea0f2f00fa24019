package core

import (
	"dreamsim/internal/model"
	"dreamsim/internal/reslists"
	"dreamsim/internal/sched"
	"dreamsim/internal/sim"
)

// phase indexes the per-run placement/verdict census. The first six
// values mirror sched.Action so a placing decision's phase counter is
// phases[phase(d.Action)] with no lookup.
type phase int

const (
	phaseAllocate phase = iota
	phaseConfigure
	phasePartialConfigure
	phaseReconfigure
	phaseSuspend
	phaseDiscard
	phaseClosestMatch
	phaseReconfigFault
	phaseLost
	phaseDefrag
	phaseCount
)

// Compile-time alignment of the phase enum with sched.Action: a
// reordering of either breaks the build here instead of silently
// miscounting phases.
var _ = [1]struct{}{}[phaseAllocate-phase(sched.ActAllocate)]
var _ = [1]struct{}{}[phaseConfigure-phase(sched.ActConfigure)]
var _ = [1]struct{}{}[phasePartialConfigure-phase(sched.ActPartialConfigure)]
var _ = [1]struct{}{}[phaseReconfigure-phase(sched.ActReconfigure)]
var _ = [1]struct{}{}[phaseSuspend-phase(sched.ActSuspend)]
var _ = [1]struct{}{}[phaseDiscard-phase(sched.ActDiscard)]

// phaseNames maps phase indices back to the report keys.
var phaseNames = [phaseCount]string{
	"allocate", "configure", "partial-configure", "reconfigure",
	"suspend", "discard", "closest-match", "reconfig-fault", "lost",
	"defrag",
}

// RunContext is the reusable per-run scratch state of a Simulator:
// the event engine (whose queue pool and heap slice survive across
// runs) and the dense, index-keyed bookkeeping slices that replace
// the per-run map allocations. Passing the same context to a stream
// of runs (Params.Scratch) makes their setup allocation-light and
// their hot loops allocation-free; results are byte-identical with or
// without reuse because nothing here feeds the RNG streams or the
// metered counters — it is cleared storage, not state.
//
// A context must not be shared by two simulators running
// concurrently; give each worker its own.
type RunContext struct {
	eng sim.Engine

	used      []bool // node no -> placed at least one task
	usedCount int
	phases    [phaseCount]int64
	idle      []bool // summarize scratch, config no -> idle region present

	// sus is the run's suspension queue; its element arena survives
	// across runs.
	sus reslists.SusQueue

	// Dependency bookkeeping (task-graph workloads), indexed by task
	// number; zero-length on runs without Deps.
	children        [][]int
	terminal        []model.TaskStatus
	depBlocked      []*model.Task
	depBlockedCount int

	// Fault bookkeeping, indexed by task/node number; zero-length on
	// fault-free runs.
	inflight  []*sim.Event
	downSince []int64
}

// NewRunContext returns an empty reusable run context.
func NewRunContext() *RunContext { return &RunContext{} }

// growClear returns s with length n and all elements zeroed, reusing
// the backing array when it is large enough.
func growClear[T any](s []T, n int) []T {
	if cap(s) < n {
		//lint:allocfree grow path: reallocates only when a donated context's capacity is outgrown; steady-state runs reuse the array (gated by TestTickZeroAlloc)
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// prepare readies the context for a fresh run over nodeCount nodes
// and the given configurations. depMax is the highest task number
// named by Params.Deps (-1 when absent); faults sizes the fault
// slices. All state from the previous run is cleared; backing arrays
// are kept.
func (ctx *RunContext) prepare(nodeCount int, configs []*model.Config, depMax int, faults bool) {
	ctx.eng.Reset()
	ctx.used = growClear(ctx.used, nodeCount)
	ctx.usedCount = 0
	clear(ctx.phases[:])
	ctx.idle = growClear(ctx.idle, len(configs))
	ctx.sus.Reset(configs)

	n := depMax + 1
	ctx.terminal = growClear(ctx.terminal, n)
	ctx.depBlocked = growClear(ctx.depBlocked, n)
	ctx.depBlockedCount = 0
	if cap(ctx.children) < n {
		ctx.children = make([][]int, n)
	} else {
		ctx.children = ctx.children[:n]
		for i := range ctx.children {
			ctx.children[i] = ctx.children[i][:0]
		}
	}

	if faults {
		ctx.downSince = growClear(ctx.downSince, nodeCount)
		clear(ctx.inflight)
	} else {
		ctx.downSince = ctx.downSince[:0]
		ctx.inflight = ctx.inflight[:0]
	}
}

// markUsed records that node no hosted at least one task (Table I
// "used nodes").
func (ctx *RunContext) markUsed(no int) {
	if !ctx.used[no] {
		ctx.used[no] = true
		ctx.usedCount++
	}
}

// phasesMap converts the dense census to the Result's map form,
// carrying exactly the phases that occurred (map-miss semantics of
// the old per-run map: absent key == zero count).
func (ctx *RunContext) phasesMap() map[string]int64 {
	m := make(map[string]int64, phaseCount)
	for i, n := range ctx.phases {
		if n != 0 {
			m[phaseNames[i]] = n
		}
	}
	return m
}

// terminalOf reports the terminal status of task no; zero
// (TaskCreated) when the task has not terminated.
func (ctx *RunContext) terminalOf(no int) model.TaskStatus {
	if no < len(ctx.terminal) {
		return ctx.terminal[no]
	}
	return 0
}

// setTerminal records task no's terminal status, growing the slice
// for sources (SWF traces) whose numbering exceeds the Deps range.
func (ctx *RunContext) setTerminal(no int, st model.TaskStatus) {
	if no >= len(ctx.terminal) {
		//lint:allocfree grow path: extends once per task-number high-water mark, then indexes in place (gated by TestTickZeroAlloc)
		ctx.terminal = append(ctx.terminal, make([]model.TaskStatus, no+1-len(ctx.terminal))...)
	}
	ctx.terminal[no] = st
}

// blockedTask returns the arrived-but-gated task numbered no, if any.
func (ctx *RunContext) blockedTask(no int) *model.Task {
	if no < len(ctx.depBlocked) {
		return ctx.depBlocked[no]
	}
	return nil
}

// setBlocked parks an arrived task behind its precedence gate.
func (ctx *RunContext) setBlocked(task *model.Task) {
	no := task.No
	if no >= len(ctx.depBlocked) {
		//lint:allocfree grow path: extends once per task-number high-water mark, then indexes in place (gated by TestTickZeroAlloc)
		ctx.depBlocked = append(ctx.depBlocked, make([]*model.Task, no+1-len(ctx.depBlocked))...)
	}
	if ctx.depBlocked[no] == nil {
		ctx.depBlockedCount++
	}
	ctx.depBlocked[no] = task
}

// clearBlocked releases task no from the gate.
func (ctx *RunContext) clearBlocked(no int) {
	if no < len(ctx.depBlocked) && ctx.depBlocked[no] != nil {
		ctx.depBlocked[no] = nil
		ctx.depBlockedCount--
	}
}

// childrenOf lists the dependants of parent task no.
func (ctx *RunContext) childrenOf(no int) []int {
	if no < len(ctx.children) {
		return ctx.children[no]
	}
	return nil
}

// setInflight records the completion event of running task no.
func (ctx *RunContext) setInflight(no int, ev *sim.Event) {
	if no >= len(ctx.inflight) {
		//lint:allocfree grow path: extends once per task-number high-water mark, then indexes in place (gated by TestTickZeroAlloc)
		ctx.inflight = append(ctx.inflight, make([]*sim.Event, no+1-len(ctx.inflight))...)
	}
	ctx.inflight[no] = ev
}

// inflightOf returns running task no's completion event, if tracked.
func (ctx *RunContext) inflightOf(no int) *sim.Event {
	if no < len(ctx.inflight) {
		return ctx.inflight[no]
	}
	return nil
}

// clearInflight forgets task no's completion event.
func (ctx *RunContext) clearInflight(no int) {
	if no < len(ctx.inflight) {
		ctx.inflight[no] = nil
	}
}
