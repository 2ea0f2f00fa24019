// Package exec is the experiment-level parallel executor: it fans
// independent simulation units (matrix cells, scenario halves,
// replication seeds) out across a bounded worker pool. Units are
// claimed in index order, each unit writes its result to its own
// index's slot, and the first unit error cancels the remaining
// unclaimed units via context — so a failed sweep reports the same
// error a sequential sweep would, and a successful sweep produces
// results in the same slots regardless of worker count or OS
// scheduling.
//
// The executor imposes no determinism of its own; it relies on every
// unit being a pure function of its index (in DReAMSim each unit
// derives all randomness from its own Params.Seed), which is what
// makes parallel sweeps byte-identical to sequential ones.
package exec

import (
	"context"
	"sync"
	"sync/atomic"
)

// DoWorkers runs n independent units on at most workers goroutines.
// Units are claimed in index order; workers <= 1 degenerates to a
// plain sequential loop (zero goroutines). The first error — by unit
// index, not by wall-clock — is returned, and its occurrence cancels
// the context passed to still-unclaimed units. A cancelled parent
// context is returned as-is.
//
// Each unit is passed the identity of the claiming worker: w is
// stable for one goroutine's whole unit stream and no two concurrent
// units ever share it, so a caller can hand each worker exclusive
// reusable state — a run context, a scratch arena — indexed by w,
// without locking. Sequential execution (workers <= 1) claims
// everything as worker 0.
func DoWorkers(ctx context.Context, workers, n int, unit func(ctx context.Context, w, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := unit(ctx, 0, i); err != nil {
				return err
			}
		}
		return nil
	}

	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var next atomic.Int64
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n || wctx.Err() != nil {
					return
				}
				if err := unit(wctx, w, i); err != nil {
					errs[i] = err
					cancel()
					return
				}
			}
		}(w)
	}
	wg.Wait()
	// Report the lowest-index failure so the error a caller sees does
	// not depend on goroutine scheduling.
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
