// Command dreambench times the experiment engine: it runs the same
// sweep matrix sequentially and in parallel in one process, then
// writes a machine-readable BENCH_<date>.json with ns-per-sweep,
// cells/sec and the parallel speedup. The committed BENCH files give
// each change a performance paper trail.
//
// Examples:
//
//	dreambench
//	dreambench -scale 2000 -parallel 8 -out .
//	dreambench -compare BENCH_old.json BENCH_new.json
//
// The -compare form runs no simulations: it diffs two BENCH files
// sweep by sweep and exits non-zero when any shared sweep's cells/sec
// regressed beyond -tolerance (default 10%) — the CI perf gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"dreamsim"
)

// sweep is one timed configuration of the engine. Every sweep records
// the environment it ran under — GOMAXPROCS — so -compare can refuse
// to diff numbers measured on mismatched environments. The large-scale
// streamed cell carries its node/task shape and reports tasks/sec
// instead of cells/sec; the placement-scan microbench cell reports
// scans/sec.
type sweep struct {
	Label       string  `json:"label"`
	Parallel    int     `json:"parallel"`
	Runs        int     `json:"runs"`
	NsPerSweep  int64   `json:"ns_per_sweep"`
	CellsPerSec float64 `json:"cells_per_sec,omitempty"`
	Procs       int     `json:"gomaxprocs"`
	Stream      bool    `json:"stream,omitempty"`
	Nodes       int     `json:"nodes,omitempty"`
	Tasks       int     `json:"tasks,omitempty"`
	TasksPerSec float64 `json:"tasks_per_sec,omitempty"`
	ScansPerSec float64 `json:"scans_per_sec,omitempty"`
	// Checkpoint-overhead cell only: the uncheckpointed twin's
	// duration, the snapshot cadence/count/size, and the fractional
	// slowdown the periodic snapshots cost.
	NsBaseline      int64   `json:"ns_baseline,omitempty"`
	CheckpointEvery uint64  `json:"checkpoint_every,omitempty"`
	Snapshots       int     `json:"snapshots,omitempty"`
	SnapshotBytes   int     `json:"snapshot_bytes,omitempty"`
	OverheadPct     float64 `json:"checkpoint_overhead_pct,omitempty"`
}

// report is the BENCH_<date>.json schema.
type report struct {
	Date      string  `json:"date"`
	GoVersion string  `json:"go_version"`
	CPUs      int     `json:"cpus"`
	NodesGrid []int   `json:"nodes_grid"`
	TasksGrid []int   `json:"tasks_grid"`
	Cells     int     `json:"cells"`
	Seed      uint64  `json:"seed"`
	Sweeps    []sweep `json:"sweeps"`
	Speedup   float64 `json:"parallel_speedup"`
	// SpeedupLabel is "contended" when the speedup number measured
	// nothing real: the process had one scheduler thread (workers
	// time-slice instead of running concurrently) or the parallel
	// sweep came out slower than the sequential one. A contended
	// figure documents the environment honestly instead of posing as
	// a parallelism measurement.
	SpeedupLabel string `json:"parallel_speedup_label,omitempty"`
}

func main() {
	var (
		scale     = flag.Int("scale", 1500, "largest task count in the benchmark grid")
		seed      = flag.Uint64("seed", 1, "random seed")
		parallel  = flag.Int("parallel", dreamsim.DefaultParallelism(), "worker count for the parallel sweep")
		runs      = flag.Int("runs", 3, "timed repetitions per configuration (best run is reported)")
		noMatrix  = flag.Bool("no-matrix", false, "skip the GOMAXPROCS x workers matrix sweeps")
		noScan    = flag.Bool("no-scan", false, "skip the placement-scan microbench cells")
		scanNodes = flag.Int("scan-nodes", 5000, "node count of the placement-scan microbench")
		noLarge   = flag.Bool("no-large", false, "skip the large-scale streamed cell")
		largeN    = flag.Int("large-nodes", 2000, "node count of the large-scale streamed cell")
		largeT    = flag.Int("large-tasks", 250000, "task count of the large-scale streamed cell")
		noCkpt    = flag.Bool("no-checkpoint", false, "skip the checkpoint-overhead cell")
		ckptT     = flag.Int("checkpoint-tasks", 20000, "task count of the checkpoint-overhead cell")
		ckptEvery = flag.Uint64("checkpoint-every", 10000, "snapshot cadence (events) of the checkpoint-overhead cell")
		outDir    = flag.String("out", "", "directory for BENCH_<date>.json (default: print to stdout only)")
		compare   = flag.Bool("compare", false, "compare two BENCH files: dreambench -compare old.json new.json (exit 1 on regression)")
		tolerance = flag.Float64("tolerance", 0.10, "fractional cells/sec slowdown -compare tolerates per sweep")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "dreambench: -compare needs exactly two BENCH files: old.json new.json")
			os.Exit(2)
		}
		var out strings.Builder
		code, err := runCompare(&out, flag.Arg(0), flag.Arg(1), *tolerance)
		fmt.Print(out.String())
		if err != nil {
			fmt.Fprintln(os.Stderr, "dreambench:", err)
		}
		os.Exit(code)
	}

	nodesGrid := []int{50, 100, 150}
	tasksGrid := []int{*scale / 3, 2 * *scale / 3, *scale}
	cells := len(nodesGrid) * len(tasksGrid)

	base := dreamsim.DefaultParams()
	base.Seed = *seed

	time1 := func(p dreamsim.Params) time.Duration {
		start := time.Now()
		if _, err := dreamsim.RunMatrix(p, nodesGrid, tasksGrid, nil); err != nil {
			fmt.Fprintln(os.Stderr, "dreambench:", err)
			os.Exit(1)
		}
		return time.Since(start)
	}
	best := func(p dreamsim.Params) time.Duration {
		min := time1(p) // warm-up counts: first run is often representative on small grids
		for i := 1; i < *runs; i++ {
			if d := time1(p); d < min {
				min = d
			}
		}
		return min
	}
	mkSweep := func(label string, par int) sweep {
		p := base
		p.Parallelism = par
		d := best(p)
		fmt.Fprintf(os.Stderr, "%-12s parallel=%-3d  %12v  %7.1f cells/s\n",
			label, par, d, float64(cells)/d.Seconds())
		return sweep{
			Label:       label,
			Parallel:    par,
			Runs:        *runs,
			NsPerSweep:  d.Nanoseconds(),
			CellsPerSec: float64(cells) / d.Seconds(),
			Procs:       runtime.GOMAXPROCS(0),
		}
	}
	// mkMatrixSweep times one GOMAXPROCS x workers matrix point: the
	// scheduler is pinned to procs OS threads while par sweep workers
	// fan cells out, exposing how worker speedup scales with the
	// processors actually available.
	mkMatrixSweep := func(procs, par int) sweep {
		prev := runtime.GOMAXPROCS(procs)
		s := mkSweep(fmt.Sprintf("mp%d/par%d", procs, par), par)
		runtime.GOMAXPROCS(prev)
		return s
	}
	// mkLargeSweep times one streamed large-scale run (single cell, so
	// its throughput is tasks/sec rather than cells/sec).
	mkLargeSweep := func(nodes, tasks int) sweep {
		p := base
		p.Nodes = nodes
		p.Tasks = tasks
		p.Stream = true
		p.PartialReconfig = true
		time1Run := func() time.Duration {
			start := time.Now()
			if _, err := dreamsim.Run(p); err != nil {
				fmt.Fprintln(os.Stderr, "dreambench:", err)
				os.Exit(1)
			}
			return time.Since(start)
		}
		d := time1Run()
		for i := 1; i < *runs; i++ {
			if r := time1Run(); r < d {
				d = r
			}
		}
		label := "stream-large"
		fmt.Fprintf(os.Stderr, "%-12s nodes=%-5d tasks=%-8d  %12v  %9.0f tasks/s\n",
			label, nodes, tasks, d, float64(tasks)/d.Seconds())
		return sweep{
			Label:       label,
			Parallel:    1,
			Runs:        *runs,
			NsPerSweep:  d.Nanoseconds(),
			Procs:       runtime.GOMAXPROCS(0),
			Stream:      true,
			Nodes:       nodes,
			Tasks:       tasks,
			TasksPerSec: float64(tasks) / d.Seconds(),
		}
	}

	// mkCheckpointSweep times one run driven through the checkpointed
	// API twice — once straight to completion, once snapshotting every
	// ckEvery events — and reports the snapshot cadence's cost: the
	// number every dreamserve operator trades off against how much
	// work a kill may lose.
	mkCheckpointSweep := func(tasks int, ckEvery uint64) sweep {
		p := base
		p.Nodes = 100
		p.Tasks = tasks
		timeCk := func(every uint64) (time.Duration, int, int) {
			run, err := dreamsim.StartRun(p)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dreambench:", err)
				os.Exit(1)
			}
			snaps, snapBytes := 0, 0
			start := time.Now()
			for {
				var done bool
				if every == 0 {
					done = run.RunUntil(nil)
				} else {
					target := run.Processed() + every
					done = run.RunUntil(func(_ int64, processed uint64) bool {
						return processed >= target
					})
				}
				if done {
					break
				}
				snap, err := run.Snapshot()
				if err != nil {
					fmt.Fprintln(os.Stderr, "dreambench:", err)
					os.Exit(1)
				}
				snaps++
				snapBytes = len(snap)
			}
			if _, err := run.Finish(); err != nil {
				fmt.Fprintln(os.Stderr, "dreambench:", err)
				os.Exit(1)
			}
			return time.Since(start), snaps, snapBytes
		}
		bestCk := func(every uint64) (time.Duration, int, int) {
			d, snaps, bytes := timeCk(every)
			for i := 1; i < *runs; i++ {
				if r, s, b := timeCk(every); r < d {
					d, snaps, bytes = r, s, b
				}
			}
			return d, snaps, bytes
		}
		baseD, _, _ := bestCk(0)
		ckD, snaps, snapBytes := bestCk(ckEvery)
		overhead := (ckD.Seconds() - baseD.Seconds()) / baseD.Seconds() * 100
		fmt.Fprintf(os.Stderr, "%-12s tasks=%-8d every=%-7d  %12v  (bare %v, %d snaps of %d B, +%.1f%%)\n",
			"checkpoint", tasks, ckEvery, ckD, baseD, snaps, snapBytes, overhead)
		return sweep{
			Label:           "checkpoint",
			Parallel:        1,
			Runs:            *runs,
			Procs:           runtime.GOMAXPROCS(0),
			NsPerSweep:      ckD.Nanoseconds(),
			Nodes:           p.Nodes,
			Tasks:           tasks,
			TasksPerSec:     float64(tasks) / ckD.Seconds(),
			NsBaseline:      baseD.Nanoseconds(),
			CheckpointEvery: ckEvery,
			Snapshots:       snaps,
			SnapshotBytes:   snapBytes,
			OverheadPct:     overhead,
		}
	}

	rep := report{
		Date:      time.Now().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		CPUs:      runtime.NumCPU(),
		NodesGrid: nodesGrid,
		TasksGrid: tasksGrid,
		Cells:     cells,
		Seed:      *seed,
	}
	seq := mkSweep("sequential", 1)
	par := mkSweep("parallel", *parallel)
	rep.Sweeps = append(rep.Sweeps, seq, par)
	rep.Speedup = float64(seq.NsPerSweep) / float64(par.NsPerSweep)
	if runtime.GOMAXPROCS(0) == 1 || rep.Speedup < 1 {
		// A 1-thread process cannot measure parallel speedup (its
		// workers time-slice), and a sub-1.0 ratio is contention, not
		// speedup. Label it so nobody reads the number as a result.
		rep.SpeedupLabel = "contended"
		fmt.Fprintf(os.Stderr,
			"warning: parallel_speedup %.3f is contended (GOMAXPROCS=%d) — not a parallelism measurement\n",
			rep.Speedup, runtime.GOMAXPROCS(0))
	}
	if !*noMatrix {
		for _, procs := range dedupInts(1, runtime.NumCPU()) {
			for _, workers := range dedupInts(1, 2, *parallel) {
				rep.Sweeps = append(rep.Sweeps, mkMatrixSweep(procs, workers))
			}
		}
	}
	if !*noScan {
		rep.Sweeps = append(rep.Sweeps, mkScanSweep(*scanNodes, *runs))
	}
	if !*noLarge {
		rep.Sweeps = append(rep.Sweeps, mkLargeSweep(*largeN, *largeT))
	}
	if !*noCkpt {
		rep.Sweeps = append(rep.Sweeps, mkCheckpointSweep(*ckptT, *ckptEvery))
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dreambench:", err)
		os.Exit(1)
	}
	out = append(out, '\n')
	fmt.Printf("%s", out)
	if *outDir != "" {
		path := filepath.Join(*outDir, "BENCH_"+rep.Date+".json")
		if err := os.WriteFile(path, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "dreambench:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "wrote", path)
	}
}

// dedupInts returns the positive values with duplicates removed,
// preserving first-occurrence order so matrix labels stay stable.
func dedupInts(vals ...int) []int {
	var out []int
	seen := make(map[int]bool, len(vals))
	for _, v := range vals {
		if v > 0 && !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}
