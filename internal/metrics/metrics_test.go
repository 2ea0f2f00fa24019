package metrics

import "testing"

func TestComputeTableI(t *testing.T) {
	c := &Counters{
		TotalNodes:        200,
		TotalConfigs:      50,
		GeneratedTasks:    1000,
		CompletedTasks:    900,
		DiscardedTasks:    100,
		WastedArea:        500000,
		SchedulerSearch:   2500000,
		HousekeepingSteps: 1500000,
		TaskWaitTime:      9_000_000,
		TaskRunningTime:   45_000_000,
		ConfigurationTime: 15000,
		Reconfigurations:  4000,
		UsedNodes:         180,
		SimulationTime:    1_234_567,
		SusQueuePeak:      321,
		SusRetries:        777,
	}
	r := Compute(c)
	if r.AvgWastedAreaPerTask != 500 {
		t.Errorf("AvgWastedAreaPerTask = %v, want 500 (Eq. 7)", r.AvgWastedAreaPerTask)
	}
	if r.AvgRunningTimePerTask != 50000 {
		t.Errorf("AvgRunningTimePerTask = %v, want 50000", r.AvgRunningTimePerTask)
	}
	if r.AvgReconfigCountPerNode != 20 {
		t.Errorf("AvgReconfigCountPerNode = %v, want 20", r.AvgReconfigCountPerNode)
	}
	if r.AvgReconfigTimePerTask != 15 {
		t.Errorf("AvgReconfigTimePerTask = %v, want 15 (Eq. 10)", r.AvgReconfigTimePerTask)
	}
	if r.AvgWaitingTimePerTask != 9000 {
		t.Errorf("AvgWaitingTimePerTask = %v, want 9000 (Eq. 9)", r.AvgWaitingTimePerTask)
	}
	if r.AvgSchedulingStepsPerTask != 2500 {
		t.Errorf("AvgSchedulingStepsPerTask = %v, want 2500", r.AvgSchedulingStepsPerTask)
	}
	if r.TotalSchedulerWorkload != 4000000 {
		t.Errorf("TotalSchedulerWorkload = %v, want 4000000", r.TotalSchedulerWorkload)
	}
	if r.TotalDiscardedTasks != 100 || r.DiscardRate != 0.1 {
		t.Errorf("discards: %d rate %v", r.TotalDiscardedTasks, r.DiscardRate)
	}
	if r.TotalUsedNodes != 180 || r.TotalSimulationTime != 1_234_567 {
		t.Errorf("used/simtime: %d/%d", r.TotalUsedNodes, r.TotalSimulationTime)
	}
}

func TestComputeZeroDenominators(t *testing.T) {
	r := Compute(&Counters{})
	if r.AvgWastedAreaPerTask != 0 || r.AvgRunningTimePerTask != 0 ||
		r.AvgReconfigCountPerNode != 0 || r.AvgWaitingTimePerTask != 0 {
		t.Errorf("zero counters produced non-zero averages: %+v", r)
	}
}
