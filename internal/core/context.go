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
// runs), the dense, index-keyed bookkeeping slices that replace the
// per-run map allocations, and the task free list. Passing the same
// context to a stream of runs (Params.Scratch) makes their setup
// allocation-light, their hot loops allocation-free and their
// arrivals reuse the task structs of earlier runs; results are
// byte-identical with or without reuse because nothing here feeds the
// RNG streams or the metered counters — it is cleared storage, not
// state.
//
// A context must not be shared by two simulators running
// concurrently; give each worker its own.
type RunContext struct {
	eng sim.Engine

	used      []bool // node no -> placed at least one task
	usedCount int
	phases    [phaseCount]int64

	// filter is retrySuspended's digest of the freed node.
	filter reslists.Filter

	// sus is the run's suspension queue; its element arena survives
	// across runs.
	sus reslists.SusQueue

	// Dependency bookkeeping (task-graph workloads), indexed by task
	// number; zero-length on runs without Deps.
	children        [][]int
	terminal        []model.TaskStatus
	depBlocked      []*model.Task
	depBlockedCount int

	// downSince is each node's crash tick, indexed by node number;
	// zero-length on fault-free runs. A running task's completion
	// event, which a crash cancels, lives on the task itself
	// (model.Task.CompletionEvent).
	downSince []int64

	// drainScratch is the recycled backing array for drainQueue's
	// per-pass suspension snapshot.
	drainScratch []*model.Task

	// tasks is the task free list. New lends it to the pooled source
	// it builds, and Finish takes it back once every task the run drew
	// is terminal, so a worker's task structs outlive each run. It is
	// nil while a run holds it; a run that fails keeps it, and the
	// list is dropped.
	tasks []*model.Task
}

// NewRunContext returns an empty reusable run context.
func NewRunContext() *RunContext { return &RunContext{} }

// growClear returns s with length n and all elements zeroed, reusing
// the backing array when it is large enough.
func growClear[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// prepare readies the context for a fresh run over nodeCount nodes
// and the given configurations. depMax is the highest task number
// named by Params.Deps (-1 when absent); faults sizes downSince. All
// state from the previous run is cleared; backing arrays are kept.
func (ctx *RunContext) prepare(nodeCount int, configs []*model.Config, depMax int, faults bool) {
	ctx.eng.Reset()
	ctx.used = growClear(ctx.used, nodeCount)
	ctx.usedCount = 0
	clear(ctx.phases[:])
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
	} else {
		ctx.downSince = ctx.downSince[:0]
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
