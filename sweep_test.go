package dreamsim

import (
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"
)

// sweepTestUnits returns three pairs of small runs that differ in
// node count, task count and seed, each unit labelled by its index.
func sweepTestUnits() []sweepUnit {
	var units []sweepUnit
	for i, shape := range [][3]int{{20, 300, 1}, {10, 100, 7}, {30, 200, 3}} {
		p := DefaultParams()
		p.Nodes, p.Tasks, p.Seed = shape[0], shape[1], uint64(shape[2])
		units = appendPair(units, p, fmt.Sprintf("pair %d", i))
	}
	return units
}

// TestSweepAssemblesInOrder: whatever the worker count (0 and 1 run
// sequentially, 8 is trimmed to the six units), unit u's result lands
// in out[u] and equals the same run made alone, and onPair sees every
// pair exactly once, with the results the sweep returns.
func TestSweepAssemblesInOrder(t *testing.T) {
	units := sweepTestUnits()
	want := make([]Result, len(units))
	for u, unit := range units {
		res, err := Run(unit.p)
		if err != nil {
			t.Fatal(err)
		}
		want[u] = res
	}
	for _, parallelism := range []int{0, 1, 3, 8} {
		t.Run(fmt.Sprintf("parallelism=%d", parallelism), func(t *testing.T) {
			var mu sync.Mutex
			pairs := make(map[int][2]Result)
			out, err := sweep(parallelism, units, func(i int, full, partial Result) {
				mu.Lock()
				defer mu.Unlock()
				if _, dup := pairs[i]; dup {
					t.Errorf("pair %d observed twice", i)
				}
				pairs[i] = [2]Result{full, partial}
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(units) {
				t.Fatalf("%d results for %d units", len(out), len(units))
			}
			for u := range units {
				if !reflect.DeepEqual(out[u], want[u]) {
					t.Errorf("out[%d] (%d nodes, %d tasks, partial %v) differs from the run made alone",
						u, units[u].p.Nodes, units[u].p.Tasks, units[u].p.PartialReconfig)
				}
			}
			if len(pairs) != len(units)/2 {
				t.Fatalf("onPair saw %d pairs, want %d", len(pairs), len(units)/2)
			}
			for i, pr := range pairs {
				if !reflect.DeepEqual(pr, [2]Result{out[2*i], out[2*i+1]}) {
					t.Errorf("onPair(%d) was not given units %d and %d", i, 2*i, 2*i+1)
				}
			}
		})
	}
	if out, err := sweep(2, nil, nil); err != nil || len(out) != 0 {
		t.Errorf("an empty sweep returned %d results, err %v", len(out), err)
	}
}

// TestSweepDiscardsResultsOnError: when units 3 and 5 fail, a sweep
// returns no results and unit 3's error under its label, as a
// sequential sweep would, at every worker count. Units are claimed in
// index order, so pair 0 always completes; onPair sees it once and
// never a pair with a failed half.
func TestSweepDiscardsResultsOnError(t *testing.T) {
	units := sweepTestUnits()
	for _, u := range []int{3, 5} {
		// A task's completion time overflows the clock.
		units[u].p.TaskTimeRange = [2]int64{math.MaxInt64 - 5, math.MaxInt64 - 5}
	}
	_, runErr := Run(units[3].p)
	if runErr == nil {
		t.Fatal("a run whose tasks complete past the clock succeeded")
	}
	want := "dreamsim: pair 1: " + runErr.Error()
	for _, parallelism := range []int{1, 2, 4} {
		var mu sync.Mutex
		var seen []int
		out, err := sweep(parallelism, units, func(i int, _, _ Result) {
			mu.Lock()
			seen = append(seen, i)
			mu.Unlock()
		})
		if out != nil || err == nil || err.Error() != want {
			t.Errorf("parallelism %d: got %d results, err %v; want none and %q", parallelism, len(out), err, want)
		}
		if !reflect.DeepEqual(seen, []int{0}) {
			t.Errorf("parallelism %d: onPair saw pairs %v, want [0]", parallelism, seen)
		}
	}
}
