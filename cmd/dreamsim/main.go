// Command dreamsim runs one DReAMSim simulation (or a full-vs-partial
// comparison) and prints the paper's Table I metrics; -xml emits the
// output subsystem's XML simulation report.
//
// Examples:
//
//	dreamsim -nodes 200 -tasks 5000 -partial
//	dreamsim -nodes 100 -tasks 10000 -compare
//	dreamsim -nodes 100 -tasks 2000 -compare -replicate 5
//	dreamsim -tasks 2000 -partial -xml report.xml
//	dreamsim -tasks 2000 -trace workload.trace -partial
//	dreamsim -nodes 5000 -tasks 1000000 -partial -cpuprofile cpu.prof
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"

	"dreamsim"
)

func main() {
	var (
		nodes       = flag.Int("nodes", 200, "number of reconfigurable nodes")
		configs     = flag.Int("configs", 50, "size of the configurations list")
		tasks       = flag.Int("tasks", 1000, "number of tasks to generate")
		interval    = flag.Int64("interval", 50, "max inter-arrival gap in timeticks")
		poisson     = flag.Bool("poisson", false, "Poisson arrivals instead of uniform gaps")
		partial     = flag.Bool("partial", false, "enable partial reconfiguration")
		compare     = flag.Bool("compare", false, "run both scenarios over identical inputs")
		seed        = flag.Uint64("seed", 1, "random seed")
		placement   = flag.String("placement", "best-fit", "allocation criterion: best-fit|first-fit|worst-fit|random-fit")
		loadBalance = flag.Bool("lb", false, "enable least-loaded tie-break (load balancing module)")
		noSus       = flag.Bool("no-suspension", false, "discard instead of suspending")
		maxRetries  = flag.Int64("max-retries", 0, "discard suspended tasks after this many re-examinations (0 = never)")
		netLow      = flag.Int64("net-low", 0, "minimum node network delay")
		netHigh     = flag.Int64("net-high", 0, "maximum node network delay")
		bsBW        = flag.Int64("bitstream-bw", 0, "bitstream transfer bandwidth, bytes/tick (0 = off)")
		dataBW      = flag.Int64("data-bw", 0, "task data transfer bandwidth, bytes/tick (0 = off)")
		xmlOut      = flag.String("xml", "", "write the XML simulation report to this file")
		tracePath   = flag.String("trace", "", "read the task stream from this trace file")
		scenario    = flag.String("scenario", "", "read a workload scenario (dreamsim-scenario v1) from this file")
		phases      = flag.Bool("phases", false, "print the per-phase placement census")
		timeline    = flag.Bool("timeline", false, "print utilization/queue sparklines over the run")
		replicate   = flag.Int("replicate", 0, "replicate the run over N seeds and print metric statistics (with -compare: paired full-vs-partial differences)")
		parallel    = flag.Int("parallel", dreamsim.DefaultParallelism(), "workers for -compare/-replicate fan-out (1 = sequential)")
		window      = flag.Int("window", 0, "monitoring samples per rolling aggregation window (0 = full series, or the default window with -timeline-out; implies sampling)")
		timelineOut = flag.String("timeline-out", "", "stream rolling-window timeline rows to this CSV file as the run progresses")
		cpuProfile  = flag.String("cpuprofile", "", "write a CPU profile to this file")

		faultCrashRate  = flag.Float64("fault-crash-rate", 0, "mean random node crashes per timetick (0 = off)")
		faultDowntime   = flag.Float64("fault-downtime", 0, "mean downtime of randomly crashed nodes, in timeticks")
		faultReconfRate = flag.Float64("fault-reconfig-rate", 0, "mean reconfiguration-failure armings per timetick (0 = off)")
		faultScript     = flag.String("fault-script", "", "scripted fault schedule: crash@TICK:NODE,recover@TICK:NODE,cfail@TICK,...")
		faultRetries    = flag.Int64("fault-retries", 0, "crash displacements a task survives before being lost (0 = default 3)")
		faultBackoff    = flag.Int64("fault-backoff", 0, "first retry backoff in timeticks, doubling per displacement (0 = default 16)")
		faultBackoffCap = flag.Int64("fault-backoff-cap", 0, "retry backoff ceiling in timeticks (0 = default 4096)")
	)
	flag.Parse()
	if *tracePath != "" && (*compare || *replicate > 0) {
		fmt.Fprintln(os.Stderr, "dreamsim: -trace replays one run; it cannot be combined with -compare or -replicate")
		os.Exit(2)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		fail(err)
		fail(pprof.StartCPUProfile(f))
		// fail exits through os.Exit, which skips defers.
		onExit = pprof.StopCPUProfile
		defer pprof.StopCPUProfile()
	}

	p := dreamsim.DefaultParams()
	p.Nodes = *nodes
	p.Configs = *configs
	p.Tasks = *tasks
	p.NextTaskMaxInterval = *interval
	p.PoissonArrivals = *poisson
	p.PartialReconfig = *partial
	p.Seed = *seed
	p.Placement = *placement
	p.LoadBalance = *loadBalance
	p.DisableSuspension = *noSus
	p.MaxSusRetries = *maxRetries
	p.NetworkDelayRange = [2]int64{*netLow, *netHigh}
	p.BitstreamBandwidth = *bsBW
	p.DataBandwidth = *dataBW
	p.Parallelism = *parallel
	p.FaultCrashRate = *faultCrashRate
	p.FaultMeanDowntime = *faultDowntime
	p.FaultReconfigRate = *faultReconfRate
	p.FaultScript = *faultScript
	p.FaultRetryBudget = *faultRetries
	p.FaultBackoffBase = *faultBackoff
	p.FaultBackoffCap = *faultBackoffCap
	p.WindowSamples = *window
	p.TimelinePath = *timelineOut
	if *timeline || *window > 0 || *timelineOut != "" {
		p.SampleEvery = 1
	}
	if *scenario != "" {
		scn, err := dreamsim.LoadScenario(*scenario)
		fail(err)
		p.ScenarioText = scn.Text
		// A scenario's tasks/interval lines govern unless the matching
		// flag was given explicitly on the command line.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if !explicit["tasks"] {
			p.Tasks = 0
		}
		if !explicit["interval"] {
			p.NextTaskMaxInterval = 0
		}
	}

	if *replicate > 0 && *compare {
		ms, err := dreamsim.ComparePaired(p, dreamsim.Seeds(p.Seed, *replicate))
		fail(err)
		fmt.Printf("full vs partial, paired over %d seeds (base %d); diff = full - partial\n\n", *replicate, p.Seed)
		fmt.Printf("%-34s %14s %14s %14s %12s %s\n", "metric", "full mean", "partial mean", "diff", "ci95", "consistent")
		for _, m := range ms {
			fmt.Printf("%-34s %14.2f %14.2f %14.2f %12.2f %v\n", m.Name, m.FullMean, m.PartialMean, m.MeanDiff, m.CI95, m.Consistent)
		}
		return
	}

	if *replicate > 0 {
		stats, err := dreamsim.RunReplicated(p, dreamsim.Seeds(p.Seed, *replicate))
		fail(err)
		fmt.Printf("replicated over %d seeds (base %d)\n\n", *replicate, p.Seed)
		fmt.Printf("%-34s %14s %12s %14s %14s\n", "metric", "mean", "ci95", "min", "max")
		for _, s := range stats {
			fmt.Printf("%-34s %14.2f %12.2f %14.2f %14.2f\n", s.Name, s.Mean, s.CI95, s.Min, s.Max)
		}
		return
	}

	if *compare {
		full, part, err := dreamsim.Compare(p)
		fail(err)
		// full.TotalTasks, not p.Tasks: the count may come from a
		// scenario file rather than the flag.
		fmt.Printf("nodes=%d tasks=%d seed=%d\n\n", p.Nodes, full.TotalTasks, p.Seed)
		fmt.Print(dreamsim.CompareTable(full, part))
		if *phases {
			printPhases("full", full)
			printPhases("partial", part)
		}
		return
	}

	var res dreamsim.Result
	var err error
	if *tracePath != "" {
		f, ferr := os.Open(*tracePath)
		fail(ferr)
		defer f.Close()
		res, err = dreamsim.RunTrace(f, p)
	} else {
		res, err = dreamsim.Run(p)
	}
	fail(err)

	fmt.Printf("scenario=%s policy=%s nodes=%d tasks=%d seed=%d\n\n",
		res.Scenario, res.Policy, p.Nodes, res.TotalTasks, res.Seed)
	fmt.Print(res.TableI())
	if *phases {
		printPhases(res.Scenario, res)
	}
	if *timeline {
		fmt.Println()
		fmt.Print(res.TimelineText())
	}
	if res.WindowsTotal > 0 {
		fmt.Printf("\nmonitoring windows closed: %d (%d retained)\n", res.WindowsTotal, len(res.Windows))
	}
	if *timelineOut != "" {
		fmt.Printf("streaming timeline written to %s\n", *timelineOut)
	}

	if *xmlOut != "" {
		f, ferr := os.Create(*xmlOut)
		fail(ferr)
		defer f.Close()
		fail(res.WriteXML(f))
		fmt.Printf("\nXML report written to %s\n", *xmlOut)
	}
}

func printPhases(label string, r dreamsim.Result) {
	fmt.Printf("\nphase census (%s):\n", label)
	for _, k := range dreamsim.SortedPhaseNames(r) {
		fmt.Printf("  %-18s %d\n", k, r.Phases[k])
	}
}

// onExit flushes an in-flight CPU profile before an error exit; main
// replaces it once profiling starts.
var onExit = func() {}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, errorLine(err))
		onExit()
		os.Exit(1)
	}
}

// errorLine is the message fail prints for err, prefixed with the
// command's name once: errors from the dreamsim package already carry
// it.
func errorLine(err error) string {
	const prefix = "dreamsim: "
	msg := err.Error()
	if strings.HasPrefix(msg, prefix) {
		return msg
	}
	return prefix + msg
}
