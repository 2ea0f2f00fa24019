package workload

import (
	"dreamsim/internal/invariant"
	"dreamsim/internal/model"
)

// Recycler is implemented by task sources that maintain a free list
// of task structs. A caller that fully owns a task whose lifecycle
// has ended (completed, discarded or lost) may Release it back;
// subsequent Next calls then reuse the memory instead of allocating.
// Releasing never changes the emitted stream — a run is byte-identical
// with or without recycling, only its allocation profile differs.
// This is what keeps a large run's heap O(live tasks) instead of
// O(all tasks): the core releases every terminal task to a source
// that implements Recycler.
type Recycler interface {
	Release(*model.Task)
}

// taskPool is the LIFO free list behind the pooled sources
// (ScenarioSource, TraceReader). It is not safe for
// concurrent use; a source and its releasing consumer live on one
// goroutine.
type taskPool struct {
	free     []*model.Task
	recycled int64
}

// poisonedTask is what a released task holds in builds with -tags
// invariants: a read through a stale pointer sees an absurd task, and
// the draw that hands the struct out again asserts the poison is
// intact, so a write through one fails loudly.
var poisonedTask = model.Task{
	No: -1 << 62, NeededArea: -1, PrefConfig: -1, AssignedConfig: -1,
	CreateTime: -1 << 62, StartTime: -1 << 62, CompletionTime: -1 << 62,
	RequiredTime: -1,
}

// get returns a recycled task re-initialised with NewTask semantics,
// or a fresh allocation when the pool is empty.
func (p *taskPool) get(no int, area model.Area, pref int, required, create int64) *model.Task {
	n := len(p.free)
	if n == 0 {
		return model.NewTask(no, area, pref, required, create)
	}
	t := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.recycled++
	if invariant.Enabled {
		invariant.Assertf(*t == poisonedTask, "workload: task struct written after release: %+v", *t)
	}
	return t.Init(no, area, pref, required, create)
}

// Recycled counts how many Next calls were served from the free list
// instead of allocating — observability for the bounded-memory claims
// (and their tests).
//
//lint:deadexport (a) benchsuite, a separate module, calls it through an interface
func (p *taskPool) Recycled() int64 { return p.recycled }

// Release implements Recycler. Releasing nil is a no-op.
func (p *taskPool) Release(t *model.Task) {
	if t == nil {
		return
	}
	if invariant.Enabled {
		invariant.Assertf(*t != poisonedTask, "workload: double release of a task struct")
		*t = poisonedTask
	}
	p.free = append(p.free, t)
}

// Lend makes free the source's free list, in place of its own, so a
// caller that runs many sources in turn can hand each the task structs
// the previous one left. The tasks on it must be terminal and
// unreferenced.
func (p *taskPool) Lend(free []*model.Task) { p.free = free }

// Reclaim takes the free list back and leaves the source an empty one.
// Only a caller that knows every task the source emitted has been
// released may reuse what it returns.
func (p *taskPool) Reclaim() []*model.Task {
	free := p.free
	p.free = nil
	return free
}
