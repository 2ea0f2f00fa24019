package exec_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"dreamsim/internal/exec"
)

func TestDoWorkersRunsEveryUnit(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 16} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 100
			var done [n]atomic.Int64
			err := exec.DoWorkers(context.Background(), workers, n, func(_ context.Context, _, i int) error {
				done[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range done {
				if got := done[i].Load(); got != 1 {
					t.Fatalf("unit %d ran %d times", i, got)
				}
			}
		})
	}
}

func TestDoWorkersSequentialOrder(t *testing.T) {
	var order []int
	err := exec.DoWorkers(context.Background(), 1, 5, func(_ context.Context, _, i int) error {
		order = append(order, i)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("workers=1 order %v, want ascending", order)
		}
	}
}

func TestDoWorkersReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("unit 3 failed")
	errB := errors.New("unit 7 failed")
	for _, workers := range []int{1, 4} {
		err := exec.DoWorkers(context.Background(), workers, 10, func(_ context.Context, _, i int) error {
			switch i {
			case 3:
				return errA
			case 7:
				return errB
			}
			return nil
		})
		// Unit 3 is claimed before unit 7, so its error always wins.
		if !errors.Is(err, errA) {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, errA)
		}
	}
}

func TestDoWorkersCancelsRemainingUnits(t *testing.T) {
	boom := errors.New("boom")
	var ran atomic.Int64
	err := exec.DoWorkers(context.Background(), 2, 1000, func(_ context.Context, _, i int) error {
		ran.Add(1)
		if i == 0 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
	if ran.Load() == 1000 {
		t.Fatal("cancellation did not skip any unit")
	}
}

func TestDoWorkersHonorsParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := exec.DoWorkers(ctx, 4, 10, func(context.Context, int, int) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestDoWorkersExclusiveIdentity pins the worker-identity contract: a
// worker index is never held by two units at once, so per-worker
// scratch state needs no locking.
func TestDoWorkersExclusiveIdentity(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			const n = 200
			busy := make([]atomic.Bool, workers)
			var ran atomic.Int64
			err := exec.DoWorkers(context.Background(), workers, n,
				func(_ context.Context, w, i int) error {
					if w < 0 || w >= workers {
						return fmt.Errorf("worker index %d out of range", w)
					}
					if !busy[w].CompareAndSwap(false, true) {
						return fmt.Errorf("worker %d ran two units concurrently", w)
					}
					ran.Add(1)
					busy[w].Store(false)
					return nil
				})
			if err != nil {
				t.Fatal(err)
			}
			if got := ran.Load(); got != n {
				t.Fatalf("ran %d of %d units", got, n)
			}
		})
	}
}

// TestDoWorkersSequentialIsWorkerZero: the workers <= 1 fast path
// claims every unit as worker 0.
func TestDoWorkersSequentialIsWorkerZero(t *testing.T) {
	err := exec.DoWorkers(context.Background(), 1, 10, func(_ context.Context, w, _ int) error {
		if w != 0 {
			return fmt.Errorf("sequential run saw worker %d", w)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
