// Command dreamsweep regenerates the figures of the paper's
// evaluation section (Figs. 6a–10): for each figure it sweeps the
// task count over the paper's grid, runs both reconfiguration
// scenarios over identical inputs, and emits the curves as CSV, a
// numeric table and an ASCII plot, together with a verdict on whether
// the paper's curve ordering is reproduced.
//
// Examples:
//
//	dreamsweep -fig 6a
//	dreamsweep -fig all -scale 10000 -out results/
//	dreamsweep -print-params
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"dreamsim"
)

func main() {
	var (
		figArg     = flag.String("fig", "all", "figure to regenerate: 6a,6b,7a,7b,8a,8b,9a,9b,10 or 'all'")
		scale      = flag.Int("scale", 100000, "cap the task-count grid at this many tasks")
		seed       = flag.Uint64("seed", 1, "random seed")
		outDir     = flag.String("out", "", "write <fig>.csv files into this directory")
		noPlot     = flag.Bool("no-plot", false, "suppress ASCII plots")
		jsonOut    = flag.String("json", "", "save the full sweep matrix as JSON ('all' mode only)")
		printParms = flag.Bool("print-params", false, "print the Table II simulation parameters and exit")
		parallel   = flag.Int("parallel", dreamsim.DefaultParallelism(), "concurrent sweep workers (1 = sequential; results identical either way)")
		scenario   = flag.String("scenario", "", "apply this workload scenario file to every sweep cell (its interval line governs; the grid sets task counts)")
		scenarios  = flag.String("scenarios", "", "comma-separated scenario files: sweep both reconfiguration methods over each, under each file's own task count and interval (scenario-set mode)")

		faultCrashRate  = flag.Float64("fault-crash-rate", 0, "mean random node crashes per timetick in every cell (0 = off)")
		faultDowntime   = flag.Float64("fault-downtime", 0, "mean downtime of randomly crashed nodes, in timeticks")
		faultReconfRate = flag.Float64("fault-reconfig-rate", 0, "mean reconfiguration-failure armings per timetick (0 = off)")
		faultRetries    = flag.Int64("fault-retries", 0, "crash displacements a task survives before being lost (0 = default 3)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *printParms {
		printTableII()
		return
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		fail(err)
		fail(pprof.StartCPUProfile(f))
	}
	// flushProfiles runs before every exit path (fail() and the
	// shape-mismatch exit bypass defers via os.Exit).
	flushProfiles := func() {
		if *cpuProfile != "" {
			pprof.StopCPUProfile()
		}
		if *memProfile != "" {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "dreamsweep:", err)
				return
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "dreamsweep:", err)
			}
			f.Close()
		}
	}
	onExit = flushProfiles
	defer flushProfiles()

	base := dreamsim.DefaultParams()
	base.Seed = *seed
	base.Parallelism = *parallel
	base.FaultCrashRate = *faultCrashRate
	base.FaultMeanDowntime = *faultDowntime
	base.FaultReconfigRate = *faultReconfRate
	base.FaultRetryBudget = *faultRetries
	grid := dreamsim.ScaledTaskCounts(*scale)

	if *scenarios != "" {
		runScenarioSet(base, *scenarios)
		return
	}
	if *scenario != "" {
		scn, err := dreamsim.LoadScenario(*scenario)
		fail(err)
		base.ScenarioText = scn.Text
		// DefaultParams' interval would otherwise win over the
		// scenario's interval line, as any non-zero field does.
		base.NextTaskMaxInterval = 0
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail(err)
		}
	}

	var figs []dreamsim.Figure
	if *figArg == "all" {
		// One matrix run covers every figure: 100- and 200-node cells
		// are shared across the figures drawn from them.
		m, err := dreamsim.RunMatrix(base, nil, grid, func(c dreamsim.Cell) {
			fmt.Fprintf(os.Stderr, "cell done: %3d nodes %6d tasks\n", c.Nodes, c.Tasks)
		})
		fail(err)
		figs, err = m.Figures()
		fail(err)
		if *jsonOut != "" {
			f, ferr := os.Create(*jsonOut)
			fail(ferr)
			fail(dreamsim.SaveMatrix(f, m))
			fail(f.Close())
			fmt.Printf("matrix saved to %s\n\n", *jsonOut)
		}
	} else {
		fig, err := dreamsim.RunFigure(dreamsim.FigureID(*figArg), grid, base)
		fail(err)
		figs = []dreamsim.Figure{fig}
	}

	allHold := true
	for _, fig := range figs {
		fmt.Println(fig.Table())
		if !*noPlot {
			fmt.Println(fig.Plot())
		}
		fmt.Println(fig.Summary())
		fmt.Println()
		if !fig.ShapeHolds() {
			allHold = false
		}
		if *outDir != "" {
			path := filepath.Join(*outDir, fmt.Sprintf("fig%s.csv", fig.ID))
			fail(os.WriteFile(path, []byte(fig.CSV()), 0o644))
			fmt.Printf("wrote %s\n\n", path)
		}
	}
	if !allHold {
		fmt.Fprintln(os.Stderr, "dreamsweep: some figure shapes were NOT reproduced")
		flushProfiles()
		os.Exit(2)
	}
}

// runScenarioSet sweeps both reconfiguration methods over each listed
// scenario file and prints a side-by-side comparison per scenario.
func runScenarioSet(base dreamsim.Params, list string) {
	var set []dreamsim.NamedScenario
	for _, path := range strings.Split(list, ",") {
		path = strings.TrimSpace(path)
		if path == "" {
			continue
		}
		scn, err := dreamsim.LoadScenario(path)
		fail(err)
		set = append(set, scn)
	}
	// Each scenario's own task count and interval govern; non-zero
	// fields would win over the scenario's lines.
	base.Tasks, base.NextTaskMaxInterval = 0, 0
	cells, err := dreamsim.RunScenarioSet(base, set, func(c dreamsim.ScenarioCell) {
		fmt.Fprintf(os.Stderr, "scenario done: %s\n", c.Name)
	})
	fail(err)
	for _, c := range cells {
		fmt.Printf("scenario %s (tasks=%d seed=%d)\n\n", c.Name, c.Full.TotalTasks, c.Full.Seed)
		fmt.Print(dreamsim.CompareTable(c.Full, c.Partial))
		if len(c.Partial.Classes) > 0 {
			fmt.Println("\nper-class (partial):")
			for _, cs := range c.Partial.Classes {
				fmt.Printf("  %-16s generated=%-8d completed=%-8d avg_wait=%-12.2f avg_run=%.2f\n",
					cs.Name, cs.Generated, cs.Completed, cs.AvgWaitingTime, cs.AvgRunningTime)
			}
		}
		fmt.Println()
	}
}

// printTableII prints the paper's Table II with our defaults.
func printTableII() {
	p := dreamsim.DefaultParams()
	rows := [][2]string{
		{"Total nodes", "100, 200 (per figure)"},
		{"Total configurations", fmt.Sprint(p.Configs)},
		{"Total tasks generated", "1000...100000"},
		{"Next task generation interval", fmt.Sprintf("[1...%d]", p.NextTaskMaxInterval)},
		{"Configurations ReqArea range", fmt.Sprintf("[%d...%d]", p.ConfigAreaRange[0], p.ConfigAreaRange[1])},
		{"Node TotalArea range", fmt.Sprintf("[%d...%d]", p.NodeAreaRange[0], p.NodeAreaRange[1])},
		{"Task t_required range", fmt.Sprintf("[%d...%d]", p.TaskTimeRange[0], p.TaskTimeRange[1])},
		{"t_config range", fmt.Sprintf("[%d...%d]", p.ConfigTimeRange[0], p.ConfigTimeRange[1])},
		{"CClosestMatch percentage", fmt.Sprintf("%.0f%%", 100*p.ClosestMatchPct)},
		{"Reconfiguration method", "with/without partial reconfiguration"},
	}
	fmt.Printf("%-34s %s\n%s\n", "Simulation parameter", "Value",
		"--------------------------------------------------------")
	for _, r := range rows {
		fmt.Printf("%-34s %s\n", r[0], r[1])
	}
}

// onExit flushes any in-flight profiles before an error exit; main
// replaces it once profiling is configured.
var onExit = func() {}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dreamsweep:", err)
		onExit()
		os.Exit(1)
	}
}
