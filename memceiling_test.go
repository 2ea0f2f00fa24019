//go:build invariants

package dreamsim_test

import (
	"runtime"
	"testing"

	"dreamsim"
)

// peakHeap runs f and estimates the heap growth it caused, in bytes:
// HeapAlloc is sampled after a pre-run GC and again right after f
// returns, before a collection can shrink the run's working set — so
// the delta approximates the run's peak retained allocation.
func peakHeap(f func()) uint64 {
	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	var after runtime.MemStats
	runtime.ReadMemStats(&after) // no GC yet: garbage from f still counts toward the peak
	if after.HeapAlloc <= before.HeapAlloc {
		return 0
	}
	return after.HeapAlloc - before.HeapAlloc
}

// TestStreamedHeapCeiling is the streaming engine's memory-regression
// gate: peak heap growth of a streamed run must be governed by the
// node count and the monitoring window, not the task count. A 10x
// task-count increase at fixed nodes must stay within 2x the smaller
// run's heap growth (plus a fixed slack for runtime noise), which an
// O(tasks) engine cannot do.
func TestStreamedHeapCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("memory ceiling needs the full-size runs")
	}
	run := func(tasks int) {
		p := dreamsim.DefaultParams()
		// 2000 nodes keeps the cluster load below saturation at the
		// default arrival rate, so the live-task population (and with
		// it the streamed heap) is governed by nodes, not task count.
		p.Nodes = 2000
		p.Tasks = tasks
		p.PartialReconfig = true
		if _, err := dreamsim.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	run(1000) // warm up: pools, lazy runtime structures, code paths

	peak10k := peakHeap(func() { run(10_000) })
	peak100k := peakHeap(func() { run(100_000) })
	t.Logf("streamed peak heap growth: 10k tasks %.2f MiB, 100k tasks %.2f MiB",
		float64(peak10k)/(1<<20), float64(peak100k)/(1<<20))

	const slack = 8 << 20 // runtime noise floor, bytes
	if peak100k > 2*peak10k+slack {
		t.Fatalf("streamed heap scales with task count: 100k-task peak %d B > 2x 10k-task peak %d B + %d B slack",
			peak100k, peak10k, slack)
	}
}

// scenarioCeilingSpec is the multi-class diurnal workload of the
// scenario heap gate: bursty gamma/weibull arrivals, a rate timeline
// and a spike, with the task count injected per run. The arrival
// shape is deliberately the stress case — bursty multi-class merging
// is where a scenario source would most plausibly accumulate state.
const scenarioCeilingSpec = `dreamsim-scenario v1
name ceiling-diurnal
interval 50
class batch
  fraction 0.7
  arrival gamma 2
  reqtime 1000 80000 lognormal
end
class interactive
  fraction 0.3
  arrival weibull 0.6
  reqtime 100 4000 uniform
end
timeline
  0 0.5
  50000 1.5
  100000 0.5
end
event spike 60000 62000 3
`

// TestScenarioStreamedHeapCeiling extends the memory-regression gate
// to the scenario compiler: a streamed 5000-node multi-class diurnal
// run must keep its peak heap governed by the node count and live
// tasks, independent of how many tasks flow through — a multi-class
// source recycles through the same free list as a flag-level one.
func TestScenarioStreamedHeapCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("memory ceiling needs the full-size runs")
	}
	run := func(tasks int) {
		p := dreamsim.DefaultParams()
		// 5000 nodes keeps the bursty multi-class load below
		// saturation, so the live-task population is node-governed.
		p.Nodes = 5000
		p.Tasks = tasks
		p.PartialReconfig = true
		p.ScenarioText = scenarioCeilingSpec
		if _, err := dreamsim.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	run(1000) // warm up: pools, lazy runtime structures, code paths

	peak10k := peakHeap(func() { run(10_000) })
	peak100k := peakHeap(func() { run(100_000) })
	t.Logf("streamed scenario peak heap growth: 10k tasks %.2f MiB, 100k tasks %.2f MiB",
		float64(peak10k)/(1<<20), float64(peak100k)/(1<<20))

	const slack = 8 << 20
	if peak100k > 2*peak10k+slack {
		t.Fatalf("streamed scenario heap scales with task count: 100k-task peak %d B > 2x 10k-task peak %d B + %d B slack",
			peak100k, peak10k, slack)
	}
}

// TestMaterializedHeapGrowsWithTasks sanity-checks the gate itself: in
// the materialized monitor mode (full sample retention) heap growth
// DOES follow the run length, so the ceiling assertion above is
// actually measuring the streaming discipline, not an artifact of the
// harness.
func TestMaterializedHeapGrowsWithTasks(t *testing.T) {
	if testing.Short() {
		t.Skip("memory growth needs the full-size runs")
	}
	run := func(tasks int) {
		p := dreamsim.DefaultParams()
		p.Nodes = 2000 // same balanced shape as the ceiling test
		p.Tasks = tasks
		p.PartialReconfig = true
		p.SampleEvery = 1 // retain the full monitoring series
		if _, err := dreamsim.Run(p); err != nil {
			t.Fatal(err)
		}
	}
	run(1000)
	small := peakHeap(func() { run(10_000) })
	large := peakHeap(func() { run(100_000) })
	t.Logf("materialized peak heap growth: 10k tasks %.2f MiB, 100k tasks %.2f MiB",
		float64(small)/(1<<20), float64(large)/(1<<20))
	if large < 2*small {
		t.Fatalf("expected materialized heap to scale with task count (got %d B -> %d B); the ceiling gate may be vacuous",
			small, large)
	}
}
