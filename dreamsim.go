// Package dreamsim is a from-scratch Go implementation of DReAMSim —
// the Dynamic Reconfigurable Autonomous Many-task Simulator of
// Nadeem, Ashraf, Ostadzadeh, Wong and Bertels, "Task Scheduling in
// Large-scale Distributed Systems Utilizing Partial Reconfigurable
// Processing Elements" (IPDPSW 2012).
//
// The simulator models a large-scale distributed system whose
// processing elements are reconfigurable (FPGA-like) nodes. Each node
// has a total fabric area; processor configurations occupy area and
// take time to load; application tasks prefer a configuration and run
// for a required time. Under full reconfiguration a node hosts one
// configuration and one task; under partial reconfiguration a node
// hosts as many configurations as its area allows and runs one task
// per resident configuration, rewriting idle regions at run time.
//
// Quick start:
//
//	p := dreamsim.DefaultParams()
//	p.Tasks = 5000
//	full, partial, err := dreamsim.Compare(p)
//	// full/partial carry every Table I metric of the paper.
//
// The Figure* helpers regenerate every figure of the paper's
// evaluation section; see EXPERIMENTS.md for the mapping.
package dreamsim

import (
	"fmt"
	"io"
	"os"

	"dreamsim/internal/core"
	"dreamsim/internal/fault"
	"dreamsim/internal/metrics"
	"dreamsim/internal/monitor"
	"dreamsim/internal/netmodel"
	"dreamsim/internal/report"
	"dreamsim/internal/sched"
	"dreamsim/internal/workload"
)

// Params configures a simulation run. DefaultParams returns the
// paper's Table II values; zero values elsewhere mean "feature off".
type Params struct {
	// Nodes is the node count (the paper evaluates 100 and 200).
	Nodes int
	// Configs is the size of the configurations list (paper: 50).
	Configs int
	// Tasks is the number of tasks to generate (paper: 1000–100000).
	Tasks int
	// NextTaskMaxInterval bounds the inter-arrival gap (paper: 50).
	NextTaskMaxInterval int64
	// PoissonArrivals switches the arrival process from the paper's
	// uniform gaps to exponential gaps with the same mean.
	PoissonArrivals bool
	// TaskTimeRange bounds t_required (paper: [100, 100000]).
	TaskTimeRange [2]int64
	// ConfigAreaRange bounds configuration ReqArea (paper: [200, 2000]).
	ConfigAreaRange [2]int64
	// ConfigTimeRange bounds configuration load time (paper: [10, 20]).
	ConfigTimeRange [2]int64
	// NodeAreaRange bounds node TotalArea (paper: [1000, 4000]).
	NodeAreaRange [2]int64
	// ClosestMatchPct is the share of tasks whose preferred
	// configuration is absent from the list (paper: 0.15).
	ClosestMatchPct float64
	// TaskTimeDistribution selects the t_required distribution:
	// "uniform" (paper, default), "lognormal" or "pareto" —
	// heavy-tailed fits common for recorded job runtimes.
	TaskTimeDistribution string
	// ConfigPopularity skews preferred-configuration draws: 0 =
	// uniform (paper), s > 0 = Zipf(s) popularity over the list.
	ConfigPopularity float64

	// PartialReconfig selects the reconfiguration method.
	PartialReconfig bool
	// Seed drives all randomness; equal seeds give identical inputs
	// across the two reconfiguration scenarios.
	Seed uint64

	// Placement selects the Allocation-phase criterion: "best-fit"
	// (paper, default), "first-fit", "worst-fit" or "random-fit".
	Placement string
	// LoadBalance enables the least-loaded tie-break (the load
	// balancing module).
	LoadBalance bool
	// DisableSuspension discards tasks instead of queueing them
	// (ablation).
	DisableSuspension bool
	// MaxSusRetries, when positive, discards tasks re-examined more
	// than this many times in the suspension queue.
	MaxSusRetries int64
	// DefragThreshold, when positive, blanks fully-idle partial nodes
	// holding at least this many idle regions, returning their fabric
	// to one contiguous pool (fragmentation-fighting ablation).
	DefragThreshold int

	// NetworkDelayRange bounds each node's communication delay
	// (t_comm); both zero disables network delays.
	NetworkDelayRange [2]int64
	// BitstreamBandwidth, when positive, adds BSize/bandwidth ticks
	// to every configuration load.
	BitstreamBandwidth int64
	// DataBandwidth, when positive, adds Data/bandwidth ticks to
	// every task's communication delay.
	DataBandwidth int64

	// FaultCrashRate, when positive, injects random node crashes as a
	// Poisson process with this mean rate per timetick. Crashed nodes
	// drop their resident configurations, displace their running tasks
	// into a retry path and recover after an exponential downtime.
	FaultCrashRate float64
	// FaultMeanDowntime is the mean downtime (timeticks) of randomly
	// crashed nodes; required when FaultCrashRate > 0.
	FaultMeanDowntime float64
	// FaultReconfigRate, when positive, arms reconfiguration failures
	// as a Poisson process: an armed fault aborts the next bitstream
	// load, wasting its reconfiguration time and re-suspending the task.
	FaultReconfigRate float64
	// FaultScript is an explicit fault schedule, fired alongside any
	// random streams: comma-separated "crash@TICK:NODE",
	// "recover@TICK:NODE" and "cfail@TICK" events.
	FaultScript string
	// FaultRetryBudget bounds how many crash displacements one task
	// survives before being counted lost (0 = default 3).
	FaultRetryBudget int64
	// FaultBackoffBase is the first re-dispatch backoff in timeticks
	// (0 = default 16); it doubles per displacement up to
	// FaultBackoffCap (0 = default 4096).
	FaultBackoffBase int64
	FaultBackoffCap  int64

	// CapKinds enables the heterogeneity extension: capability labels
	// nodes may offer and configurations may require (the `caps` of
	// the paper's node tuple, Eq. 1). Empty reproduces the paper's
	// homogeneous population.
	CapKinds []string
	// NodeCapProb is the probability a node offers each capability.
	NodeCapProb float64
	// ConfigCapProb is the probability a configuration requires each
	// capability.
	ConfigCapProb float64

	// SampleEvery, when positive, records a monitoring sample every
	// N-th placement/completion; the series lands in
	// Result.Timeline/TimelineText.
	SampleEvery int

	// Deprecated: Stream is ignored; every run releases finished tasks
	// to its task source's free list, so its heap follows the live
	// tasks, not the task count.
	Stream bool
	// WindowSamples selects the rolling-window aggregation of
	// monitoring samples: every WindowSamples-th sample closes a
	// window, reduced to min/max/mean/p99 per metric
	// (Result.Windows, and TimelinePath when set). 0 keeps the full
	// series, unless TimelinePath is set: then it defaults to
	// DefaultWindowSamples. Negative values are rejected.
	WindowSamples int
	// TimelinePath, when non-empty (and SampleEvery > 0), streams the
	// closed window rows to this file as CSV while the run progresses
	// — the incremental timeline output; the file never requires the
	// series to be held in memory.
	TimelinePath string

	// Parallelism bounds how many independent simulation units the
	// experiment helpers (Compare, RunMatrix, RunFigure, RunReplicated,
	// ComparePaired) execute concurrently. 0 and 1 both mean
	// sequential; DefaultParallelism() uses GOMAXPROCS. Results are
	// byte-identical at any value because each unit derives all of its
	// randomness from its own Params — parallelism only changes wall-
	// clock time. A single Run is unaffected.
	Parallelism int

	// ScenarioText, when non-empty, is a scenario specification in the
	// "dreamsim-scenario v1" format (see README): multiple traffic
	// classes, bursty gamma/weibull arrivals, a load-pattern timeline
	// and scheduled events (spikes, maintenance windows, fault storms).
	// The scenario's task count and interval lines fill Tasks and
	// NextTaskMaxInterval only where those are zero: a non-zero field
	// wins, so a caller that wants the scenario's lines zeroes them, as
	// the command-line tools do. An interval that neither sets is
	// DefaultParams'. Every other knob keeps its meaning.
	// Use LoadScenario to read one from a file. A scenario that merely
	// restates the flag surface produces byte-identical reports to the
	// equivalent flag run.
	ScenarioText string
}

// DefaultParams returns the paper's Table II parameter values with
// 200 nodes and 1000 tasks.
func DefaultParams() Params {
	return Params{
		Nodes:               200,
		Configs:             50,
		Tasks:               1000,
		NextTaskMaxInterval: 50,
		TaskTimeRange:       [2]int64{100, 100000},
		ConfigAreaRange:     [2]int64{200, 2000},
		ConfigTimeRange:     [2]int64{10, 20},
		NodeAreaRange:       [2]int64{1000, 4000},
		ClosestMatchPct:     0.15,
		PartialReconfig:     true,
		Seed:                1,
		Placement:           "best-fit",
	}
}

// spec converts the public parameters to the internal workload spec.
func (p Params) spec() workload.Spec {
	arrival := workload.ArrivalUniform
	if p.PoissonArrivals {
		arrival = workload.ArrivalPoisson
	}
	dist := workload.DistUniform
	switch p.TaskTimeDistribution {
	case "lognormal":
		dist = workload.DistLognormal
	case "pareto":
		dist = workload.DistPareto
	case "", "uniform":
	default:
		dist = workload.DistKind(-1) // rejected by Spec.Validate
	}
	return workload.Spec{
		Tasks:               p.Tasks,
		NextTaskMaxInterval: p.NextTaskMaxInterval,
		Arrival:             arrival,
		TaskReqTimeLow:      p.TaskTimeRange[0],
		TaskReqTimeHigh:     p.TaskTimeRange[1],
		ClosestMatchPct:     p.ClosestMatchPct,
		TaskTimeDist:        dist,
		ConfigPopularity:    p.ConfigPopularity,
		Configs:             p.Configs,
		ConfigAreaLow:       p.ConfigAreaRange[0],
		ConfigAreaHigh:      p.ConfigAreaRange[1],
		ConfigTimeLow:       p.ConfigTimeRange[0],
		ConfigTimeHigh:      p.ConfigTimeRange[1],
		Nodes:               p.Nodes,
		NodeAreaLow:         p.NodeAreaRange[0],
		NodeAreaHigh:        p.NodeAreaRange[1],
		CapKinds:            p.CapKinds,
		NodeCapProb:         p.NodeCapProb,
		ConfigCapProb:       p.ConfigCapProb,
	}
}

// placement parses the placement name.
func (p Params) placement() (sched.Placement, error) {
	switch p.Placement {
	case "", "best-fit":
		return sched.BestFit, nil
	case "first-fit":
		return sched.FirstFit, nil
	case "worst-fit":
		return sched.WorstFit, nil
	case "random-fit":
		return sched.RandomFit, nil
	default:
		return 0, fmt.Errorf("dreamsim: unknown placement %q", p.Placement)
	}
}

// Validate reports the first parameter Run would reject, or nil,
// without setting up a run.
func (p Params) Validate() error {
	_, err := p.coreParams()
	return err
}

// coreParams lowers the public parameters onto the engine.
func (p Params) coreParams() (core.Params, error) {
	placement, err := p.placement()
	if err != nil {
		return core.Params{}, err
	}
	if p.WindowSamples < 0 {
		return core.Params{}, fmt.Errorf("dreamsim: negative WindowSamples %d", p.WindowSamples)
	}
	cp := core.Params{
		Spec:    p.spec(),
		Partial: p.PartialReconfig,
		Seed:    p.Seed,
		PolicyOptions: sched.Options{
			Placement:         placement,
			LoadBalance:       p.LoadBalance,
			DisableSuspension: p.DisableSuspension,
		},
		Net: netmodel.Model{
			DelayLow:           p.NetworkDelayRange[0],
			DelayHigh:          p.NetworkDelayRange[1],
			BitstreamBandwidth: p.BitstreamBandwidth,
			DataBandwidth:      p.DataBandwidth,
		},
		MaxSusRetries:   p.MaxSusRetries,
		DefragThreshold: p.DefragThreshold,
	}
	script, err := fault.ParseScript(p.FaultScript)
	if err != nil {
		return core.Params{}, err
	}
	cp.Faults = fault.Plan{
		CrashRate:         p.FaultCrashRate,
		MeanDowntime:      p.FaultMeanDowntime,
		ReconfigFaultRate: p.FaultReconfigRate,
		Script:            script,
	}
	cp.Retry = fault.RetryPolicy{
		Budget:      p.FaultRetryBudget,
		BackoffBase: p.FaultBackoffBase,
		BackoffCap:  p.FaultBackoffCap,
	}
	if p.ScenarioText != "" {
		scn, serr := workload.ParseScenario(p.ScenarioText)
		if serr != nil {
			return core.Params{}, serr
		}
		if serr := scn.Validate(); serr != nil {
			return core.Params{}, serr
		}
		scn.ApplyDefaults(&cp.Spec)
		if cp.Spec.Tasks <= 0 {
			return core.Params{}, fmt.Errorf("dreamsim: scenario sets no task count and Params.Tasks is zero")
		}
		if cp.Spec.NextTaskMaxInterval == 0 {
			// The interval line is optional: without it or the field,
			// the default interval governs, as on the flag surface.
			cp.Spec.NextTaskMaxInterval = DefaultParams().NextTaskMaxInterval
		}
		cp.Scenario = scn
	}
	return cp, cp.Validate()
}

// Result carries the outcome of one run: the paper's Table I metrics
// plus supporting detail. Field meanings follow Table I; times are in
// timeticks, areas in area units.
type Result struct {
	// Table I metrics.
	AvgWastedAreaPerTask      float64
	AvgRunningTimePerTask     float64
	AvgReconfigCountPerNode   float64
	AvgReconfigTimePerTask    float64
	AvgWaitingTimePerTask     float64
	AvgSchedulingStepsPerTask float64
	TotalDiscardedTasks       int64
	TotalSchedulerWorkload    uint64
	TotalUsedNodes            int64
	TotalSimulationTime       int64

	// Supporting detail.
	TotalTasks       int64
	CompletedTasks   int64
	Reconfigurations int64
	SusQueuePeak     int64
	DiscardRate      float64

	// Fault-injection outcomes; all zero unless the Fault* knobs were
	// set. The omitempty tags keep fault-free serialised results
	// byte-identical to builds without the fault subsystem.
	NodeCrashes        int64   `json:",omitempty"`
	NodeRecoveries     int64   `json:",omitempty"`
	TasksRetried       int64   `json:",omitempty"`
	TasksLost          int64   `json:",omitempty"`
	ReconfigFaults     int64   `json:",omitempty"`
	WastedConfigTicks  int64   `json:",omitempty"`
	AvgDowntimePerNode float64 `json:",omitempty"`

	// Phases counts placements and verdicts per scheduling phase.
	Phases map[string]int64
	// Scenario is "partial" or "full"; Policy names the scheduler.
	Scenario string
	Policy   string
	// Seed echoes the run's seed.
	Seed uint64
	// Timeline holds monitoring samples when Params.SampleEvery > 0
	// (plain mode; empty on windowed runs).
	Timeline []TimelinePoint
	// Windows holds the rolling-window aggregates when
	// Params.WindowSamples selected windowed monitoring. The slice is
	// bounded (the most recent rows); WindowsTotal counts every window
	// that closed, including any the bound evicted.
	Windows      []TimelineWindow
	WindowsTotal int

	// Classes is the per-traffic-class breakdown of a multi-class
	// scenario run (Params.ScenarioText with two or more classes); nil
	// otherwise, so single-class serialised results are unchanged.
	Classes []ClassStat `json:",omitempty"`

	rep          metrics.Report
	xml          report.Simulation
	classRows    []metrics.ClassStats
	timelineText string
}

// ClassStat is one traffic class's slice of a multi-class run.
type ClassStat struct {
	Name           string
	Generated      int64
	Completed      int64
	Discarded      int64 `json:",omitempty"`
	Lost           int64 `json:",omitempty"`
	AvgWaitingTime float64
	AvgRunningTime float64
}

// TimelinePoint is one monitoring sample of a run's time series.
type TimelinePoint struct {
	Time         int64
	RunningTasks int
	Suspended    int
	Utilization  float64
	WastedArea   int64
}

// WindowStat summarises one metric over one aggregation window
// (nearest-rank p99).
type WindowStat struct {
	Min, Max, Mean, P99 float64
}

// TimelineWindow is one closed rolling-window aggregate of the
// monitoring series: the tick span its samples covered and the
// per-metric stats. ClassRunning carries one Running-style stat per
// traffic class on multi-class scenario runs; nil otherwise.
type TimelineWindow struct {
	Start, End   int64
	Samples      int
	Utilization  WindowStat
	Running      WindowStat
	Suspended    WindowStat
	WastedArea   WindowStat
	ClassRunning []WindowStat `json:",omitempty"`
}

// DefaultWindowSamples is the windowed-monitoring default: samples
// per aggregation window on timeline-writing runs that leave
// Params.WindowSamples zero.
const DefaultWindowSamples = 4096

// TimelineText renders the recorded utilisation/queue sparklines;
// empty unless Params.SampleEvery was set.
func (r Result) TimelineText() string { return r.timelineText }

// Run executes one simulation.
func Run(p Params) (Result, error) {
	return runScratch(p, nil, nil, nil)
}

// runScratch is the one path every non-checkpointed run takes. The
// experiment helpers donate a run context: they give each of their
// workers one context for its whole unit stream, so a sweep
// reallocates per-run state once per worker instead of once per cell.
// Results are identical either way (TestScratchReuseAcrossRuns pins
// this at the core layer). src, when non-nil, replaces the synthetic
// task stream (RunTrace, RunGraph), and deps adds precedence
// constraints (RunGraph).
func runScratch(p Params, scratch *core.RunContext, src workload.TaskSource, deps map[int][]int) (Result, error) {
	cp, err := p.coreParams()
	if err != nil {
		return Result{}, err
	}
	cp.Scratch = scratch
	cp.Source = src
	cp.Deps = deps
	rec, timelineFile, err := buildRecorder(p, &cp)
	if err != nil {
		return Result{}, err
	}
	closeTimeline := func() error {
		if timelineFile == nil {
			return nil
		}
		f := timelineFile
		timelineFile = nil
		return f.Close()
	}
	s, err := core.New(cp)
	if err != nil {
		closeTimeline()
		return Result{}, err
	}
	res, err := s.Run()
	if err != nil {
		closeTimeline()
		return Result{}, err
	}
	out, err := assembleResult(res, cp, rec)
	if err != nil {
		closeTimeline()
		return Result{}, err
	}
	if err := closeTimeline(); err != nil {
		return Result{}, err
	}
	return out, nil
}

// buildRecorder constructs the run's monitoring recorder from the
// sampling knobs and hooks it into the lowered parameters; rec is nil
// when sampling is off. When Params.TimelinePath requests an
// incremental timeline file the returned *os.File is the open sink
// the caller must close after the run.
func buildRecorder(p Params, cp *core.Params) (rec *monitor.Recorder, timelineFile *os.File, err error) {
	if p.SampleEvery <= 0 {
		return nil, nil, nil
	}
	window := p.WindowSamples
	if window == 0 && p.TimelinePath != "" {
		window = DefaultWindowSamples
	}
	switch {
	case window > 0:
		var sink func(monitor.WindowRow) error
		if p.TimelinePath != "" {
			f, ferr := os.Create(p.TimelinePath)
			if ferr != nil {
				return nil, nil, ferr
			}
			timelineFile = f
			sink = monitor.NewTimelineWriter(f).Write
		}
		rec = monitor.NewWindowRecorder(p.SampleEvery, window, sink)
	default:
		rec = monitor.NewRecorder(p.SampleEvery)
	}
	if cp.Scenario != nil && cp.Scenario.MultiClass() {
		rec.Classes = len(cp.Scenario.Classes)
	}
	cp.Recorder = rec
	return rec, timelineFile, nil
}

// assembleResult converts the engine result to the public form and
// drains the monitoring recorder into it.
func assembleResult(res *core.Result, cp core.Params, rec *monitor.Recorder) (Result, error) {
	out := wrap(res, cp)
	if rec != nil {
		if rec.Windowed() {
			if err := rec.FinishWindows(); err != nil {
				return Result{}, err
			}
			for _, row := range rec.Windows() {
				out.Windows = append(out.Windows, publicWindow(row))
			}
			out.WindowsTotal = rec.WindowsTotal()
		} else {
			for _, sm := range rec.Samples() {
				out.Timeline = append(out.Timeline, TimelinePoint{
					Time:         sm.Time,
					RunningTasks: sm.Running,
					Suspended:    sm.Suspended,
					Utilization:  sm.Utilization,
					WastedArea:   sm.WastedArea,
				})
			}
		}
		out.timelineText = rec.Timeline(60)
	}
	return out, nil
}

// publicWindow converts an internal window row to the public mirror.
func publicWindow(row monitor.WindowRow) TimelineWindow {
	stat := func(s monitor.WindowStat) WindowStat {
		return WindowStat{Min: s.Min, Max: s.Max, Mean: s.Mean, P99: s.P99}
	}
	out := TimelineWindow{
		Start:       row.Start,
		End:         row.End,
		Samples:     row.Samples,
		Utilization: stat(row.Utilization),
		Running:     stat(row.Running),
		Suspended:   stat(row.Suspended),
		WastedArea:  stat(row.WastedArea),
	}
	for _, cs := range row.ClassRunning {
		out.ClassRunning = append(out.ClassRunning, stat(cs))
	}
	return out
}

// RunTrace executes one simulation with the task stream read from a
// trace (see the dreamgen tool); nodes and configurations still come
// from the parameters.
func RunTrace(r io.Reader, p Params) (Result, error) {
	return runScratch(p, nil, workload.NewTraceReader(r), nil)
}

// GenerateTrace synthesises the task stream the given parameters
// would produce and writes it as a trace. The stream is written task
// by task — generating a million-task trace needs O(1) task memory.
func GenerateTrace(w io.Writer, p Params) error {
	cp, err := p.coreParams()
	if err != nil {
		return err
	}
	s, err := core.New(cp)
	if err != nil {
		return err
	}
	return workload.WriteTraceFrom(w, s.Source())
}

// Compare runs the full- and partial-reconfiguration scenarios over
// identical inputs (same seed) — the paper's head-to-head experiment.
// With Params.Parallelism > 1 the two scenarios run concurrently;
// results are identical either way.
func Compare(p Params) (full, partial Result, err error) {
	res, err := sweep(p.Parallelism, appendPair(nil, p, ""), nil)
	if err != nil {
		return Result{}, Result{}, err
	}
	return res[0], res[1], nil
}

// wrap converts an engine result to the public form.
func wrap(res *core.Result, cp core.Params) Result {
	r := res.Report
	out := Result{
		AvgWastedAreaPerTask:      r.AvgWastedAreaPerTask,
		AvgRunningTimePerTask:     r.AvgRunningTimePerTask,
		AvgReconfigCountPerNode:   r.AvgReconfigCountPerNode,
		AvgReconfigTimePerTask:    r.AvgReconfigTimePerTask,
		AvgWaitingTimePerTask:     r.AvgWaitingTimePerTask,
		AvgSchedulingStepsPerTask: r.AvgSchedulingStepsPerTask,
		TotalDiscardedTasks:       r.TotalDiscardedTasks,
		TotalSchedulerWorkload:    r.TotalSchedulerWorkload,
		TotalUsedNodes:            r.TotalUsedNodes,
		TotalSimulationTime:       r.TotalSimulationTime,
		TotalTasks:                r.TotalTasks,
		CompletedTasks:            r.CompletedTasks,
		Reconfigurations:          r.Reconfigurations,
		SusQueuePeak:              r.SusQueuePeak,
		DiscardRate:               r.DiscardRate,
		NodeCrashes:               r.NodeCrashes,
		NodeRecoveries:            r.NodeRecoveries,
		TasksRetried:              r.TasksRetried,
		TasksLost:                 r.TasksLost,
		ReconfigFaults:            r.ReconfigFaults,
		WastedConfigTicks:         r.WastedConfigTicks,
		AvgDowntimePerNode:        r.AvgDowntimePerNode,
		Phases:                    res.Phases,
		Scenario:                  res.Scenario,
		Policy:                    res.Policy,
		Seed:                      res.Seed,
		rep:                       r,
		xml:                       res.XML(cp),
		classRows:                 res.Classes,
	}
	for _, c := range res.Classes {
		out.Classes = append(out.Classes, ClassStat{
			Name:           c.Name,
			Generated:      c.Generated,
			Completed:      c.Completed,
			Discarded:      c.Discarded,
			Lost:           c.Lost,
			AvgWaitingTime: c.AvgWaitingTime,
			AvgRunningTime: c.AvgRunningTime,
		})
	}
	return out
}

// TableI renders the run's Table I metrics as a text table; on
// multi-class scenario runs a per-class block follows the paper's
// rows.
func (r Result) TableI() string {
	return report.TableIText(r.rep) + report.ClassTableText(r.classRows)
}

// WriteXML emits the run's XML simulation report (output subsystem).
func (r Result) WriteXML(w io.Writer) error { return report.WriteXML(w, r.xml) }

// CompareTable renders two runs side by side.
func CompareTable(a, b Result) string {
	return report.CompareText(a.Scenario, a.rep, b.Scenario, b.rep)
}
