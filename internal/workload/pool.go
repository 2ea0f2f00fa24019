package workload

import "dreamsim/internal/model"

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
// (Generator, TraceReader). It is not safe for concurrent use; a
// source and its releasing consumer live on one goroutine.
type taskPool struct {
	free     []*model.Task
	recycled int64
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
	return t.Init(no, area, pref, required, create)
}

// Recycled counts how many Next calls were served from the free list
// instead of allocating — observability for the bounded-memory claims
// (and their tests).
func (p *taskPool) Recycled() int64 { return p.recycled }

// Release implements Recycler. Releasing nil is a no-op.
func (p *taskPool) Release(t *model.Task) {
	if t == nil {
		return
	}
	p.free = append(p.free, t)
}
