// Package ss exercises the sharedstate analyzer: closures handed to
// the exec worker pool may only write state that is provably theirs —
// a per-unit slot, a per-worker donation, their own value copy, or
// writes serialised by a mutex / sync/atomic.
package ss

import (
	"context"
	"sync"
	"sync/atomic"

	"dreamsim/internal/lint/testdata/src/sharedstate/internal/exec"
)

type params struct {
	Seed uint64
	Out  []int
}

type state struct{ n int }

// scratch mirrors the simulator's per-worker pool shape: get projects
// the worker's own slot out of shared backing memory.
type scratch []*state

func (s scratch) get(w int) *state {
	if s[w] == nil {
		s[w] = &state{}
	}
	return s[w]
}

var hits int

func bumpGlobal() { hits++ }

func bumpAll(out []int) {
	for i := range out {
		out[i]++
	}
}

func setAt(out []int, i, v int) {
	out[i] = v
}

func PerUnitIndex(out []int) error {
	return exec.DoWorkers(context.Background(), 4, len(out), func(_ context.Context, _, u int) error {
		out[u] = u * u // the unit's own slot: safe
		return nil
	})
}

func DerivedUnitIndex(out []int) error {
	return exec.DoWorkers(context.Background(), 4, len(out), func(_ context.Context, _, u int) error {
		j := u
		out[j] = u // a local copied from the unit index: safe
		return nil
	})
}

func EscapedUnitIndex(out []int) error {
	return exec.DoWorkers(context.Background(), 4, len(out), func(_ context.Context, _, u int) error {
		j := u
		j = 0      // reassignment off the unit index forfeits safety
		out[j] = u // want `exec.DoWorkers unit writes shared state through out\[\.\.\.\]`
		return nil
	})
}

func SharedCounter() error {
	var total int
	return exec.DoWorkers(context.Background(), 4, 8, func(_ context.Context, _, u int) error {
		total += u // want `exec.DoWorkers unit writes shared state through total without synchronization`
		return nil
	})
}

func MutexSerialised(sum *int) error {
	var mu sync.Mutex
	return exec.DoWorkers(context.Background(), 4, 8, func(_ context.Context, _, u int) error {
		mu.Lock()
		*sum += u // serialised under the mutex: safe
		mu.Unlock()
		return nil
	})
}

func AtomicCounter() error {
	var total atomic.Int64
	return exec.DoWorkers(context.Background(), 4, 8, func(_ context.Context, _, u int) error {
		total.Add(int64(u)) // sync/atomic: safe
		return nil
	})
}

func ValueCopy(p params) error {
	return exec.DoWorkers(context.Background(), 4, 2, func(_ context.Context, _, u int) error {
		q := p
		q.Seed = uint64(u) // the unit's own copy: safe
		q.Out[0] = u       // want `exec.DoWorkers unit writes shared state through q.Out`
		return nil
	})
}

func WorkerDonation(pool scratch) error {
	return exec.DoWorkers(context.Background(), 2, 8, func(_ context.Context, w, u int) error {
		st := pool.get(w)
		st.n++ // the worker's donated slot: safe
		return nil
	})
}

func WrongIndexDonation(pool scratch) error {
	return exec.DoWorkers(context.Background(), 2, 8, func(_ context.Context, w, u int) error {
		st := pool.get(0) // want `exec.DoWorkers unit passes captured pool to \(scratch\).get, which writes it at an index that is not this unit's worker or unit index`
		st.n++            // want `exec.DoWorkers unit writes shared state through st.n`
		return nil
	})
}

func HelperPlainWrite(out []int) error {
	return exec.DoWorkers(context.Background(), 4, len(out), func(_ context.Context, _, u int) error {
		bumpAll(out) // want `exec.DoWorkers unit passes captured out to bumpAll, which writes through it without a per-worker index`
		return nil
	})
}

func HelperIndexedWrite(out []int) error {
	return exec.DoWorkers(context.Background(), 4, len(out), func(_ context.Context, _, u int) error {
		setAt(out, u, u) // helper writes only at this unit's index: safe
		setAt(out, 0, u) // want `exec.DoWorkers unit passes captured out to setAt, which writes it at an index that is not this unit's worker or unit index`
		return nil
	})
}

func CapturedFunc(notify func()) error {
	return exec.DoWorkers(context.Background(), 4, 2, func(_ context.Context, _, u int) error {
		notify() // want `exec.DoWorkers unit calls captured notify, whose effects on shared state cannot be proven`
		return nil
	})
}

func GlobalViaHelper() error {
	return exec.DoWorkers(context.Background(), 4, 2, func(_ context.Context, _, u int) error {
		bumpGlobal() // want `exec.DoWorkers unit calls bumpGlobal, which writes package-level variable "hits"`
		return nil
	})
}
