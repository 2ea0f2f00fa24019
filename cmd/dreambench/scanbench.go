package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
	"dreamsim/internal/resinfo"
	"dreamsim/internal/rng"
)

// The placement-scan microbench: a scan-layer change shows per scan,
// so the sweep-level cells above dilute it with everything else a run
// does. This cell isolates the hot kernels — the full-walk argmin and
// first-fit scans the scheduler issues per decision — on a large
// population (default 5000 nodes) and reports raw scans per second.

// scanPopulation mirrors the resinfo search benchmark's population:
// mixed-mode nodes over a 1000-4000 area range, soft-core configs over
// 200-2000, no capability classes — every node lands in one shard, so
// every scan walks the whole population, the worst case for the
// sharding layer.
func scanPopulation(seed uint64, nodeCount, configCount int) ([]*model.Node, []*model.Config) {
	r := rng.New(seed)
	nodes := make([]*model.Node, nodeCount)
	for i := range nodes {
		nodes[i] = model.NewNode(i, int64(r.IntRange(1000, 4000)), r.Bool(0.5))
	}
	configs := make([]*model.Config, configCount)
	for i := range configs {
		configs[i] = &model.Config{
			No:         i,
			ReqArea:    int64(r.IntRange(200, 2000)),
			Ptype:      model.PTypeSoftCore,
			ConfigTime: int64(r.IntRange(10, 20)),
		}
	}
	return nodes, configs
}

// timeScans runs rounds of the three O(n) placement queries over every
// config and returns the wall time and query count.
func timeScans(m *resinfo.Manager, configs []*model.Config, rounds int) (time.Duration, int) {
	ops := 0
	start := time.Now()
	for r := 0; r < rounds; r++ {
		for _, cfg := range configs {
			m.BestBlankNode(cfg)
			m.BestPartiallyBlankNode(cfg)
			m.AnyBusyNodeCouldFit(cfg)
			ops += 3
		}
	}
	return time.Since(start), ops
}

// mkScanSweep builds a nodeCount-node manager and times the scan
// kernels; runs repetitions keep the best time, like every other cell.
func mkScanSweep(nodeCount, runs int) sweep {
	const rounds = 40
	nodes, configs := scanPopulation(1234, nodeCount, 30)
	m, err := resinfo.New(nodes, configs, &metrics.Counters{})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dreambench:", err)
		os.Exit(1)
	}
	timeScans(m, configs, 2) // warm up the cache lines
	d, ops := timeScans(m, configs, rounds)
	for i := 1; i < runs; i++ {
		if r, _ := timeScans(m, configs, rounds); r < d {
			d = r
		}
	}
	label := fmt.Sprintf("scan%d", nodeCount)
	fmt.Fprintf(os.Stderr, "%-12s nodes=%-5d  %12v  %9.0f scans/s\n",
		label, nodeCount, d, float64(ops)/d.Seconds())
	return sweep{
		Label:       label,
		Parallel:    1,
		Runs:        runs,
		NsPerSweep:  d.Nanoseconds(),
		Procs:       runtime.GOMAXPROCS(0),
		Nodes:       nodeCount,
		ScansPerSec: float64(ops) / d.Seconds(),
	}
}
