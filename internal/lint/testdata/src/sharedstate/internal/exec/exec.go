// Package exec mirrors the simulator executor's API shape for the
// sharedstate fixture: the analyzer recognises the worker pool by the
// internal/exec import-path suffix and the DoWorkers name, so the
// fixture needs its own copy with a matching signature.
package exec

import "context"

// DoWorkers runs n units on up to workers goroutines (here:
// sequentially — only the signature matters to the analyzer).
func DoWorkers(ctx context.Context, workers, n int, unit func(ctx context.Context, w, u int) error) error {
	for u := 0; u < n; u++ {
		if err := unit(ctx, 0, u); err != nil {
			return err
		}
	}
	return nil
}
