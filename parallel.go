package dreamsim

// The parallel experiment engine. A single simulation is one
// sequential event loop (one clock mutating one resource population;
// see DESIGN.md §14), but every experiment helper above it — the
// full/partial halves of Compare, the cells of RunMatrix, the seeds
// of RunReplicated and ComparePaired — is a set of completely
// independent runs: each unit derives all of its randomness from its
// own Params (seed, node count, task count, scenario), never from
// shared state. Fanning the units across a worker pool therefore
// yields byte-identical results to a sequential sweep, regardless of
// worker count and OS scheduling; only wall-clock time changes.
// Params.Parallelism selects the worker count; internal/exec supplies
// the pool.

import (
	"runtime"

	"dreamsim/internal/core"
)

// DefaultParallelism returns the worker count the CLI tools default
// to: one worker per CPU.
func DefaultParallelism() int { return runtime.NumCPU() }

// Deprecated: EffectiveIntraParallel returns 1; every run is sequential.
func EffectiveIntraParallel(int) int { return 1 }

// workersFor normalises a Params.Parallelism value (0 and 1 both mean
// sequential) and caps it at the number of available units.
func workersFor(parallelism, units int) int {
	if parallelism < 1 {
		parallelism = 1
	}
	if parallelism > units {
		parallelism = units
	}
	return parallelism
}

// scratchPool hands each experiment worker a reusable core run
// context, built on first use. exec.DoWorkers guarantees a worker
// index is never shared by two concurrent units, so slot w needs no
// locking; the context amortises per-run state (event pool, dense
// bookkeeping slices) over the worker's whole unit stream without
// changing any result.
type scratchPool []*core.RunContext

func newScratchPool(workers int) scratchPool { return make(scratchPool, workers) }

func (s scratchPool) get(w int) *core.RunContext {
	if s[w] == nil {
		s[w] = core.NewRunContext()
	}
	return s[w]
}
