// Package metrics implements DReAMSim's performance accounting:
// every metric in Table I of the paper, the counters of the DreamSim
// class (§IV-C), and the derivation equations 5–10.
package metrics

// Counters mirrors the statistic accumulators of the paper's DreamSim
// class. The core simulator increments these during a run; Report
// derives the Table I metrics from them at the end.
type Counters struct {
	// Static experiment shape.
	TotalNodes   int
	TotalConfigs int

	// Task population (paper: TotalCurGenTasks, TotalCompletedTasks,
	// TotalCurSusTasks, TotalDiscardedTasks).
	GeneratedTasks int64
	CompletedTasks int64
	SuspendedTasks int64 // currently suspended (gauge)
	DiscardedTasks int64
	RunningTasks   int64 // currently running (gauge)

	// Accumulators (paper: Total_Wasted_Area,
	// Total_Search_Length_Scheduler, Total_Task_Wait_Time,
	// Total_Tasks_Running_Time, Total_Configuration_Time).
	WastedArea        int64  // Eq. 6/7 accumulation
	SchedulerSearch   uint64 // scheduler search steps (SL counter)
	HousekeepingSteps uint64 // resource-information housekeeping steps
	TaskWaitTime      int64  // Σ t_wait (Eq. 8)
	TaskRunningTime   int64  // Σ turnaround time
	ConfigurationTime int64  // Eq. 10: Σ ReconfigCount_k · ConfigTime_k
	Reconfigurations  int64  // total bitstream sends
	SusRetries        int64  // suspension queue re-examinations

	// Fault-injection accounting; all zero in fault-free runs.
	NodeCrashes      int64 // node crash events applied
	NodeRecoveries   int64 // crashed nodes returned to service
	DowntimeTicks    int64 // Σ (recover − crash) lapses across nodes
	TasksRetried     int64 // crash-displaced re-dispatches scheduled
	LostTasks        int64 // tasks that exhausted the retry budget
	ReconfigFaults   int64 // reconfiguration attempts that aborted
	WastedConfigTime int64 // ticks charged to aborted reconfigurations

	// UsedNodes counts nodes that received at least one task.
	UsedNodes int64
	// SimulationTime is the final timetick (Eq. 5).
	SimulationTime int64
	// SusQueuePeak is the deepest the suspension queue got.
	SusQueuePeak int64
}

// TotalSchedulerWorkload is the Table I metric: scheduler search
// steps plus resource-information housekeeping steps.
func (c *Counters) TotalSchedulerWorkload() uint64 {
	return c.SchedulerSearch + c.HousekeepingSteps
}

// ClassCounters accumulates per-traffic-class task accounting during
// a multi-class scenario run. It lives beside Counters (never inside
// it: Counters stays a flat, ==-comparable struct) and only exists
// when the task source declares two or more classes.
type ClassCounters struct {
	Generated int64
	Completed int64
	Discarded int64
	Lost      int64
	WaitTime  int64 // Σ t_wait over the class's started tasks
	RunTime   int64 // Σ turnaround over the class's completed tasks
}

// ClassStats is the derived per-class report block: the class's task
// population split plus its Table I-style per-task averages.
type ClassStats struct {
	Name           string  `json:"name"`
	Generated      int64   `json:"generated"`
	Completed      int64   `json:"completed"`
	Discarded      int64   `json:"discarded,omitempty"`
	Lost           int64   `json:"lost,omitempty"`
	AvgWaitingTime float64 `json:"avg_waiting_time"`
	AvgRunningTime float64 `json:"avg_running_time"`
}

// ComputeClasses derives per-class stats, mirroring Compute's
// denominator rules: waiting time averages over generated tasks,
// running time over completed ones. Returns nil for nil input so
// single-class runs serialise without a classes block.
func ComputeClasses(names []string, acc []ClassCounters) []ClassStats {
	if len(acc) == 0 {
		return nil
	}
	out := make([]ClassStats, len(acc))
	for i, c := range acc {
		s := ClassStats{
			Name:      names[i],
			Generated: c.Generated,
			Completed: c.Completed,
			Discarded: c.Discarded,
			Lost:      c.Lost,
		}
		if c.Generated > 0 {
			s.AvgWaitingTime = float64(c.WaitTime) / float64(c.Generated)
		}
		if c.Completed > 0 {
			s.AvgRunningTime = float64(c.RunTime) / float64(c.Completed)
		}
		out[i] = s
	}
	return out
}

// Report carries every Table I metric for one simulation run.
type Report struct {
	// Scenario/shape echo.
	TotalNodes   int   `json:"total_nodes"`
	TotalConfigs int   `json:"total_configs"`
	TotalTasks   int64 `json:"total_tasks"`

	// Table I rows.
	AvgWastedAreaPerTask      float64 `json:"avg_wasted_area_per_task"`    // Eq. 7
	AvgRunningTimePerTask     float64 `json:"avg_running_time_per_task"`   // turnaround
	AvgReconfigCountPerNode   float64 `json:"avg_reconfig_count_per_node"` //
	AvgReconfigTimePerTask    float64 `json:"avg_reconfig_time_per_task"`  // Eq. 10 / tasks
	AvgWaitingTimePerTask     float64 `json:"avg_waiting_time_per_task"`   // Eq. 9
	AvgSchedulingStepsPerTask float64 `json:"avg_scheduling_steps_per_task"`
	TotalDiscardedTasks       int64   `json:"total_discarded_tasks"`
	TotalSchedulerWorkload    uint64  `json:"total_scheduler_workload"`
	TotalUsedNodes            int64   `json:"total_used_nodes"`
	TotalSimulationTime       int64   `json:"total_simulation_time"` // Eq. 5

	// Supporting detail beyond Table I.
	CompletedTasks   int64   `json:"completed_tasks"`
	Reconfigurations int64   `json:"reconfigurations"`
	SusQueuePeak     int64   `json:"sus_queue_peak"`
	SusRetries       int64   `json:"sus_retries"`
	DiscardRate      float64 `json:"discard_rate"`

	// Fault-injection outcomes. The omitempty tags keep fault-free
	// serialised reports byte-identical to builds without the fault
	// subsystem.
	NodeCrashes        int64   `json:"node_crashes,omitempty"`
	NodeRecoveries     int64   `json:"node_recoveries,omitempty"`
	TasksRetried       int64   `json:"tasks_retried,omitempty"`
	TasksLost          int64   `json:"tasks_lost,omitempty"`
	ReconfigFaults     int64   `json:"reconfig_faults,omitempty"`
	WastedConfigTicks  int64   `json:"wasted_config_ticks,omitempty"`
	AvgDowntimePerNode float64 `json:"avg_downtime_per_node,omitempty"`
}

// HasFaults reports whether the run saw any fault activity; reports
// of fault-free runs render without the fault rows.
func (r Report) HasFaults() bool {
	return r.NodeCrashes != 0 || r.NodeRecoveries != 0 || r.TasksRetried != 0 ||
		r.TasksLost != 0 || r.ReconfigFaults != 0 || r.WastedConfigTicks != 0 ||
		r.AvgDowntimePerNode != 0
}

// Compute derives the Table I metrics from the raw counters.
// Per-task averages divide by the number of *generated* tasks, as in
// Eq. 7/9 ("total tasks"); rates guard against zero denominators.
func Compute(c *Counters) Report {
	tasks := float64(c.GeneratedTasks)
	nodes := float64(c.TotalNodes)
	r := Report{
		TotalNodes:             c.TotalNodes,
		TotalConfigs:           c.TotalConfigs,
		TotalTasks:             c.GeneratedTasks,
		TotalDiscardedTasks:    c.DiscardedTasks,
		TotalSchedulerWorkload: c.TotalSchedulerWorkload(),
		TotalUsedNodes:         c.UsedNodes,
		TotalSimulationTime:    c.SimulationTime,
		CompletedTasks:         c.CompletedTasks,
		Reconfigurations:       c.Reconfigurations,
		SusQueuePeak:           c.SusQueuePeak,
		SusRetries:             c.SusRetries,
		NodeCrashes:            c.NodeCrashes,
		NodeRecoveries:         c.NodeRecoveries,
		TasksRetried:           c.TasksRetried,
		TasksLost:              c.LostTasks,
		ReconfigFaults:         c.ReconfigFaults,
		WastedConfigTicks:      c.WastedConfigTime,
	}
	if tasks > 0 {
		r.AvgWastedAreaPerTask = float64(c.WastedArea) / tasks
		r.AvgReconfigTimePerTask = float64(c.ConfigurationTime) / tasks
		r.AvgWaitingTimePerTask = float64(c.TaskWaitTime) / tasks
		r.AvgSchedulingStepsPerTask = float64(c.SchedulerSearch) / tasks
		r.DiscardRate = float64(c.DiscardedTasks) / tasks
	}
	if c.CompletedTasks > 0 {
		r.AvgRunningTimePerTask = float64(c.TaskRunningTime) / float64(c.CompletedTasks)
	}
	if nodes > 0 {
		r.AvgReconfigCountPerNode = float64(c.Reconfigurations) / nodes
		r.AvgDowntimePerNode = float64(c.DowntimeTicks) / nodes
	}
	return r
}
