// Benchmark harness: one benchmark per table and figure of the
// paper's evaluation section, plus the ablation benches DESIGN.md
// calls out. Figure benches run both reconfiguration scenarios over
// identical inputs at a reduced task grid and report the figure's
// metric for each scenario via b.ReportMetric, so `go test -bench=.`
// regenerates the paper's comparisons alongside wall-time numbers:
//
//	BenchmarkFig6a_WastedArea100-8   ...  229.5 partial_y  1320 full_y
//
// The curve *shapes* (who wins, roughly by how much) reproduce the
// paper; absolute timetick values differ because the substrate is a
// reimplementation, not the authors' machine. EXPERIMENTS.md records
// the full-grid values.
package dreamsim_test

import (
	"runtime"
	"testing"

	"dreamsim"
)

// benchTasks keeps figure benches fast while staying in the regime
// where every paper ordering is visible.
const benchTasks = 2000

// benchCompare runs both scenarios and reports the chosen metric.
func benchCompare(b *testing.B, nodes int, metric func(dreamsim.Result) float64) {
	b.Helper()
	p := dreamsim.DefaultParams()
	p.Nodes = nodes
	p.Tasks = benchTasks
	var fullY, partY float64
	for i := 0; i < b.N; i++ {
		full, partial, err := dreamsim.Compare(p)
		if err != nil {
			b.Fatal(err)
		}
		fullY, partY = metric(full), metric(partial)
	}
	b.ReportMetric(fullY, "full_y")
	b.ReportMetric(partY, "partial_y")
}

// --- Table I / Table II ---

// BenchmarkTableI_MetricsPipeline exercises the whole metrics
// pipeline: simulate, derive every Table I metric, render the table.
func BenchmarkTableI_MetricsPipeline(b *testing.B) {
	p := dreamsim.DefaultParams()
	p.Nodes = 100
	p.Tasks = benchTasks
	for i := 0; i < b.N; i++ {
		res, err := dreamsim.Run(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.TableI()) == 0 {
			b.Fatal("empty table")
		}
	}
}

// --- Figures 6a–10 ---

func BenchmarkFig6a_WastedArea100(b *testing.B) {
	benchCompare(b, 100, func(r dreamsim.Result) float64 { return r.AvgWastedAreaPerTask })
}

func BenchmarkFig6b_WastedArea200(b *testing.B) {
	benchCompare(b, 200, func(r dreamsim.Result) float64 { return r.AvgWastedAreaPerTask })
}

func BenchmarkFig7a_ReconfigCount100(b *testing.B) {
	benchCompare(b, 100, func(r dreamsim.Result) float64 { return r.AvgReconfigCountPerNode })
}

func BenchmarkFig7b_ReconfigCount200(b *testing.B) {
	benchCompare(b, 200, func(r dreamsim.Result) float64 { return r.AvgReconfigCountPerNode })
}

func BenchmarkFig8a_WaitTime100(b *testing.B) {
	benchCompare(b, 100, func(r dreamsim.Result) float64 { return r.AvgWaitingTimePerTask })
}

func BenchmarkFig8b_WaitTime200(b *testing.B) {
	benchCompare(b, 200, func(r dreamsim.Result) float64 { return r.AvgWaitingTimePerTask })
}

func BenchmarkFig9a_SchedSteps200(b *testing.B) {
	benchCompare(b, 200, func(r dreamsim.Result) float64 { return r.AvgSchedulingStepsPerTask })
}

func BenchmarkFig9b_Workload200(b *testing.B) {
	benchCompare(b, 200, func(r dreamsim.Result) float64 { return float64(r.TotalSchedulerWorkload) })
}

func BenchmarkFig10_ConfigTime200(b *testing.B) {
	benchCompare(b, 200, func(r dreamsim.Result) float64 { return r.AvgReconfigTimePerTask })
}

// --- Ablations (DESIGN.md §6) ---

// BenchmarkAblationPlacement compares the Allocation-phase criteria.
func BenchmarkAblationPlacement(b *testing.B) {
	for _, placement := range []string{"best-fit", "first-fit", "worst-fit", "random-fit"} {
		b.Run(placement, func(b *testing.B) {
			p := dreamsim.DefaultParams()
			p.Nodes = 100
			p.Tasks = benchTasks
			p.Placement = placement
			var wasted float64
			for i := 0; i < b.N; i++ {
				res, err := dreamsim.Run(p)
				if err != nil {
					b.Fatal(err)
				}
				wasted = res.AvgWastedAreaPerTask
			}
			b.ReportMetric(wasted, "wasted_per_task")
		})
	}
}

// BenchmarkAblationSuspension measures the suspension queue's value:
// without it, overload turns into discards.
func BenchmarkAblationSuspension(b *testing.B) {
	for _, sus := range []struct {
		name    string
		disable bool
	}{{"with-queue", false}, {"without-queue", true}} {
		b.Run(sus.name, func(b *testing.B) {
			p := dreamsim.DefaultParams()
			p.Nodes = 100
			p.Tasks = benchTasks
			p.DisableSuspension = sus.disable
			var discards float64
			for i := 0; i < b.N; i++ {
				res, err := dreamsim.Run(p)
				if err != nil {
					b.Fatal(err)
				}
				discards = float64(res.TotalDiscardedTasks)
			}
			b.ReportMetric(discards, "discarded")
		})
	}
}

// BenchmarkAblationLoadBalance toggles the least-loaded tie-break.
func BenchmarkAblationLoadBalance(b *testing.B) {
	for _, lb := range []struct {
		name string
		on   bool
	}{{"off", false}, {"on", true}} {
		b.Run(lb.name, func(b *testing.B) {
			p := dreamsim.DefaultParams()
			p.Nodes = 100
			p.Tasks = benchTasks
			p.LoadBalance = lb.on
			var wait float64
			for i := 0; i < b.N; i++ {
				res, err := dreamsim.Run(p)
				if err != nil {
					b.Fatal(err)
				}
				wait = res.AvgWaitingTimePerTask
			}
			b.ReportMetric(wait, "wait_per_task")
		})
	}
}

// BenchmarkAblationClosestMatch sweeps the share of tasks whose
// preferred configuration is absent (the paper fixes it at 15%).
func BenchmarkAblationClosestMatch(b *testing.B) {
	for _, pct := range []struct {
		name string
		val  float64
	}{{"0pct", 0}, {"15pct", 0.15}, {"50pct", 0.50}} {
		b.Run(pct.name, func(b *testing.B) {
			p := dreamsim.DefaultParams()
			p.Nodes = 100
			p.Tasks = benchTasks
			p.ClosestMatchPct = pct.val
			var wasted float64
			for i := 0; i < b.N; i++ {
				res, err := dreamsim.Run(p)
				if err != nil {
					b.Fatal(err)
				}
				wasted = res.AvgWastedAreaPerTask
			}
			b.ReportMetric(wasted, "wasted_per_task")
		})
	}
}

// BenchmarkAblationHeteroCaps sweeps capability scarcity (the Eq. 1
// caps extension): rarer capabilities mean fewer compatible nodes.
func BenchmarkAblationHeteroCaps(b *testing.B) {
	for _, tc := range []struct {
		name              string
		nodeProb, cfgProb float64
	}{
		{"homogeneous", 0, 0},
		{"caps-common", 0.8, 0.3},
		{"caps-scarce", 0.3, 0.5},
	} {
		b.Run(tc.name, func(b *testing.B) {
			p := dreamsim.DefaultParams()
			p.Nodes = 100
			p.Tasks = benchTasks
			if tc.nodeProb > 0 {
				p.CapKinds = []string{"bram", "dsp", "serdes"}
				p.NodeCapProb = tc.nodeProb
				p.ConfigCapProb = tc.cfgProb
			}
			var wait float64
			for i := 0; i < b.N; i++ {
				res, err := dreamsim.Run(p)
				if err != nil {
					b.Fatal(err)
				}
				wait = res.AvgWaitingTimePerTask
			}
			b.ReportMetric(wait, "wait_per_task")
		})
	}
}

// BenchmarkAblationRuntimeDist sweeps the t_required distribution:
// the paper's uniform runtimes vs the heavy-tailed fits recorded
// workloads show.
func BenchmarkAblationRuntimeDist(b *testing.B) {
	for _, dist := range []string{"uniform", "lognormal", "pareto"} {
		b.Run(dist, func(b *testing.B) {
			p := dreamsim.DefaultParams()
			p.Nodes = 100
			p.Tasks = benchTasks
			p.TaskTimeDistribution = dist
			var wait float64
			for i := 0; i < b.N; i++ {
				res, err := dreamsim.Run(p)
				if err != nil {
					b.Fatal(err)
				}
				wait = res.AvgWaitingTimePerTask
			}
			b.ReportMetric(wait, "wait_per_task")
		})
	}
}

// BenchmarkAblationDefrag toggles idle-node compaction: fighting
// region fragmentation eagerly costs reconfigurations.
func BenchmarkAblationDefrag(b *testing.B) {
	for _, tc := range []struct {
		name      string
		threshold int
	}{{"off", 0}, {"threshold-2", 2}, {"threshold-4", 4}} {
		b.Run(tc.name, func(b *testing.B) {
			p := dreamsim.DefaultParams()
			p.Nodes = 100
			p.Tasks = benchTasks
			p.TaskTimeRange = [2]int64{100, 2000} // light load: defrag can fire mid-run
			p.DefragThreshold = tc.threshold
			var reconf float64
			for i := 0; i < b.N; i++ {
				res, err := dreamsim.Run(p)
				if err != nil {
					b.Fatal(err)
				}
				reconf = res.AvgReconfigCountPerNode
			}
			b.ReportMetric(reconf, "reconf_per_node")
		})
	}
}

// --- Sweep engine ---

// sweepGrid is the matrix the sweep benchmarks time: 3×3 cells, two
// scenarios each, so 18 independent simulations per iteration.
var sweepNodes = []int{50, 100, 150}
var sweepTasks = []int{500, 1000, 1500}

// benchMatrix times the sweep grid at the given worker count. cold
// empties the context pool before every iteration: two collections,
// outside the timer, drop the set the previous sweep gave back.
func benchMatrix(b *testing.B, parallel int, cold bool) {
	b.Helper()
	p := dreamsim.DefaultParams()
	p.Parallelism = parallel
	cells := len(sweepNodes) * len(sweepTasks)
	for i := 0; i < b.N; i++ {
		if cold {
			b.StopTimer()
			runtime.GC()
			runtime.GC()
			b.StartTimer()
		}
		if _, err := dreamsim.RunMatrix(p, sweepNodes, sweepTasks, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cells)*float64(b.N)/b.Elapsed().Seconds(), "cells/s")
}

// BenchmarkMatrixSweep is the sequential baseline for the parallel
// experiment engine.
func BenchmarkMatrixSweep(b *testing.B) {
	benchMatrix(b, 1, false)
}

// BenchmarkParallelMatrixSweep fans the same grid over all cores;
// results are byte-identical to BenchmarkMatrixSweep (see
// TestMatrixParallelDeterminism), only wall time changes. Every
// iteration after the first takes the worker contexts the one before
// gave back, so it times the steady state of a process that sweeps
// repeatedly.
func BenchmarkParallelMatrixSweep(b *testing.B) {
	benchMatrix(b, runtime.NumCPU(), false)
}

// BenchmarkColdMatrixSweep is BenchmarkParallelMatrixSweep with the
// context pool emptied before every iteration, so its B/op is what a
// one-shot dreamsweep allocates. Its ns/op is not comparable with the
// warm benchmark's: the collections run outside the timer and leave
// each timed sweep a fresh heap.
func BenchmarkColdMatrixSweep(b *testing.B) {
	benchMatrix(b, runtime.NumCPU(), true)
}

// BenchmarkThroughput reports simulator throughput in tasks/second —
// the engine-speed number for the README.
func BenchmarkThroughput(b *testing.B) {
	p := dreamsim.DefaultParams()
	p.Nodes = 200
	p.Tasks = 5000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dreamsim.Run(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(p.Tasks)*float64(b.N)/b.Elapsed().Seconds(), "tasks/s")
}
