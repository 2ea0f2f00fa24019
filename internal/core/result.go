package core

import (
	"fmt"
	"strings"

	"dreamsim/internal/fault"
	"dreamsim/internal/metrics"
	"dreamsim/internal/report"
)

// Result is the outcome of one simulation run: the Table I report,
// the raw counters and the per-phase placement census.
type Result struct {
	// Report carries the derived Table I metrics.
	Report metrics.Report
	// Counters is a copy of the raw accumulators.
	Counters metrics.Counters
	// Classes is the per-traffic-class breakdown of a multi-class
	// scenario run; nil otherwise, keeping single-class results (and
	// their serialised forms) unchanged.
	Classes []metrics.ClassStats
	// Phases counts placements per scheduling phase ("allocate",
	// "configure", "partial-configure", "reconfigure") plus
	// "suspend", "discard" and "closest-match" occurrences.
	Phases map[string]int64
	// Policy is the scheduling policy's name.
	Policy string
	// Scenario is "partial" or "full".
	Scenario string
	// Seed echoes the run seed.
	Seed uint64
}

// XML assembles the output subsystem's simulation report, echoing the
// run parameters.
func (r *Result) XML(params Params) report.Simulation {
	echo := map[string]string{
		"total_nodes":            fmt.Sprint(params.Spec.Nodes),
		"total_configurations":   fmt.Sprint(params.Spec.Configs),
		"total_tasks":            fmt.Sprint(params.Spec.Tasks),
		"next_task_max_interval": fmt.Sprint(params.Spec.NextTaskMaxInterval),
		"arrival":                params.Spec.Arrival.String(),
		"config_area_range":      fmt.Sprintf("[%d,%d]", params.Spec.ConfigAreaLow, params.Spec.ConfigAreaHigh),
		"node_area_range":        fmt.Sprintf("[%d,%d]", params.Spec.NodeAreaLow, params.Spec.NodeAreaHigh),
		"task_reqtime_range":     fmt.Sprintf("[%d,%d]", params.Spec.TaskReqTimeLow, params.Spec.TaskReqTimeHigh),
		"config_time_range":      fmt.Sprintf("[%d,%d]", params.Spec.ConfigTimeLow, params.Spec.ConfigTimeHigh),
		"closest_match_pct":      fmt.Sprintf("%g", params.Spec.ClosestMatchPct),
		"reconfiguration":        r.Scenario,
	}
	// Fault knobs are echoed only on faulty runs so fault-free reports
	// stay byte-identical to those of builds without the subsystem.
	if params.Faults.Enabled() {
		echo["fault_crash_rate"] = fmt.Sprintf("%g", params.Faults.CrashRate)
		echo["fault_mean_downtime"] = fmt.Sprintf("%g", params.Faults.MeanDowntime)
		echo["fault_reconfig_rate"] = fmt.Sprintf("%g", params.Faults.ReconfigFaultRate)
		if len(params.Faults.Script) > 0 {
			echo["fault_script"] = fault.FormatScript(params.Faults.Script)
		}
	}
	// Scenario parameters are echoed only on genuinely multi-class
	// runs (r.Classes is nil otherwise): a scenario restating the flag
	// surface must report byte-identically to the flag run.
	if params.Scenario != nil && len(r.Classes) > 0 {
		if params.Scenario.Name != "" {
			echo["scenario"] = params.Scenario.Name
		}
		names := make([]string, len(r.Classes))
		for i := range r.Classes {
			names[i] = r.Classes[i].Name
		}
		echo["scenario_classes"] = strings.Join(names, ",")
		if n := len(params.Scenario.Timeline); n > 0 {
			echo["scenario_timeline_points"] = fmt.Sprint(n)
		}
		if n := len(params.Scenario.Events); n > 0 {
			echo["scenario_events"] = fmt.Sprint(n)
		}
	}
	sim := report.New(r.Scenario, r.Policy, r.Seed, echo, r.Report, r.Phases)
	sim.Metrics = append(sim.Metrics, report.ClassMetricRows(r.Classes)...)
	return sim
}
