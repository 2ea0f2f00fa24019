package dreamsim

// The parallel experiment engine. A single simulation is one
// sequential event loop (one clock mutating one resource population;
// see DESIGN.md §14), but every experiment helper above it — the
// full/partial halves of Compare, the cells of RunMatrix and
// RunScenarioSet, the seeds of RunReplicated and ComparePaired — is a
// set of completely independent runs: each unit derives all of its
// randomness from its own Params (seed, node count, task count,
// scenario), never from shared state. Fanning the units across a
// worker pool therefore yields byte-identical results to a sequential
// sweep, regardless of worker count and OS scheduling; only wall-clock
// time changes. Each helper lowers its units onto sweep, the one
// fan-out; Params.Parallelism selects the worker count, and
// internal/exec supplies the pool.

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dreamsim/internal/core"
	"dreamsim/internal/exec"
)

// DefaultParallelism returns the worker count the CLI tools and
// dreamserve default to: GOMAXPROCS, the number of goroutines the Go
// scheduler runs at once. A wider sweep would build run contexts that
// wait for a thread.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// Deprecated: EffectiveIntraParallel returns 1; every run is sequential.
//
//lint:deadexport (a) benchsuite, a separate module, calls it
func EffectiveIntraParallel(int) int { return 1 }

// sweepUnit is one run of a sweep: its parameters and the label its
// error gets ("" returns the run's error as it is).
type sweepUnit struct {
	p     Params
	label string
}

// appendPair appends p's full and partial runs, in that order, as one
// sweep pair.
func appendPair(units []sweepUnit, p Params, label string) []sweepUnit {
	p.PartialReconfig = false
	full := sweepUnit{p, label}
	p.PartialReconfig = true
	return append(units, full, sweepUnit{p, label})
}

// sweep is the one fan-out under every experiment helper. It runs the
// units on the worker set newScratchPool hands out, through one
// exec.DoWorkers call with min(parallelism, len(units)) workers, and
// writes unit u's result only to out[u]. The first error by unit index
// wins, so a failed sweep reports what a sequential one would.
//
// onPair, when non-nil, sees pair i (units 2i and 2i+1, the full and
// partial halves of one cell; the units then come in pairs) once both
// halves are in. Its calls are serialised under one mutex; with more
// than one worker, pairs may complete out of order.
func sweep(parallelism int, units []sweepUnit, onPair func(i int, full, partial Result)) ([]Result, error) {
	for _, u := range units {
		if u.p.TimelinePath != "" {
			return nil, fmt.Errorf("dreamsim: a sweep cannot stream a timeline file: every run would write %s", u.p.TimelinePath)
		}
	}
	out := make([]Result, len(units))
	if len(units) == 0 {
		// newScratchPool(0) would trim the pooled worker set to nothing,
		// and the process's next sweep would start cold.
		return out, nil
	}
	var mu sync.Mutex
	halves := make([]int8, len(units)/2)
	workers := min(max(parallelism, 1), len(units))
	scratch := newScratchPool(workers)
	err := exec.DoWorkers(context.Background(), workers, len(units),
		func(_ context.Context, w, u int) error {
			res, err := runScratch(units[u].p, scratch.get(w), nil, nil)
			if err != nil {
				if units[u].label == "" {
					return err
				}
				return fmt.Errorf("dreamsim: %s: %w", units[u].label, err)
			}
			out[u] = res
			if onPair != nil {
				mu.Lock()
				if halves[u/2]++; halves[u/2] == 2 {
					onPair(u/2, out[u&^1], out[u|1])
				}
				mu.Unlock()
			}
			return nil
		})
	scratch.release()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// scratchPool is one sweep's worker set: a run context per worker,
// taken before the fan-out. exec.DoWorkers guarantees a worker index
// is never shared by two concurrent units, so slot w needs no
// locking; the context amortises per-run state (event pool,
// suspension arena, task free list, dense bookkeeping slices) over
// the worker's whole unit stream without changing any result.
type scratchPool []*core.RunContext

// sweepSet is one pooled worker set. The pool holds two copies of
// each set (see release); taken marks the set handed out, so the copy
// its sweep did not take is skipped.
type sweepSet struct {
	taken atomic.Bool
	ctxs  scratchPool
}

// sweepContexts keeps the worker sets of finished sweeps, one set per
// sweep, so the process's next sweep starts with warm contexts. A set
// is pooled whole, so a later sweep gets all of an earlier sweep's
// contexts at once. Like any sync.Pool item, a set no sweep takes is
// dropped at the second GC cycle after it was given back.
var sweepContexts sync.Pool

// newScratchPool takes a worker set from sweepContexts, or builds one,
// and sizes it to workers. A set wider than this sweep drops its extra
// contexts, so what the process keeps is what its last sweeps used.
func newScratchPool(workers int) scratchPool {
	var s scratchPool
	for {
		set, _ := sweepContexts.Get().(*sweepSet)
		if set == nil {
			break
		}
		if set.taken.CompareAndSwap(false, true) {
			s = set.ctxs
			break
		}
	}
	if len(s) > workers {
		clear(s[workers:])
		s = s[:workers]
	}
	for len(s) < workers {
		s = append(s, core.NewRunContext())
	}
	return s
}

func (s scratchPool) get(w int) *core.RunContext { return s[w] }

// release gives the set back to sweepContexts. Call it only once
// exec.DoWorkers has returned: it waits for every worker, so no unit
// still holds a context. A run that failed leaves
// its context reusable (the next run's prepare clears it; only its
// task free list is lost). The set is put twice. A sync.Pool keeps an
// item in the putting P's private slot when that slot is free, and
// only that P can take it from there; the second copy goes to the
// shared chain, which every P can take from. runtime.GC and blocking
// calls move a goroutine between Ps, and the next sweep still finds
// the set. Put once, a set left on another P is missed: the next
// sweep starts cold and builds a second set while the first lives on.
func (s scratchPool) release() {
	set := &sweepSet{ctxs: s}
	sweepContexts.Put(set)
	sweepContexts.Put(set)
}
