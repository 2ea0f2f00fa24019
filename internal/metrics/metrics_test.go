package metrics

import (
	"strings"
	"testing"
)

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

func TestAccounted(t *testing.T) {
	c := &Counters{CompletedTasks: 5, DiscardedTasks: 2, SuspendedTasks: 3, RunningTasks: 1}
	if c.Accounted() != 11 {
		t.Errorf("Accounted = %d, want 11", c.Accounted())
	}
}

func TestSeriesAndFigure(t *testing.T) {
	var with, without Series
	with.Name = "with partial configuration"
	without.Name = "without partial configuration"
	for i := 1; i <= 3; i++ {
		with.Add(float64(i*1000), float64(i))
		without.Add(float64(i*1000), float64(i*2))
	}
	fig := Figure{
		ID: "6a", Title: "Average wasted area per task",
		XLabel: "Total tasks generated", YLabel: "area units",
		Series: []Series{without, with},
	}
	if s := fig.SeriesByName("with partial configuration"); s == nil || len(s.Points) != 3 {
		t.Fatal("SeriesByName failed")
	}
	if s := fig.SeriesByName("nope"); s != nil {
		t.Fatal("absent series found")
	}
	y, ok := with.YAt(2000)
	if !ok || y != 2 {
		t.Fatalf("YAt = %v,%v", y, ok)
	}
	if _, ok := with.YAt(999); ok {
		t.Fatal("YAt hit a missing x")
	}
	csv := fig.CSV()
	if !strings.HasPrefix(csv, "x,without partial configuration,with partial configuration\n") {
		t.Fatalf("CSV header wrong:\n%s", csv)
	}
	if !strings.Contains(csv, "\n2000,4,2\n") {
		t.Fatalf("CSV row wrong:\n%s", csv)
	}
	lines := strings.Count(csv, "\n")
	if lines != 4 { // header + 3 rows
		t.Fatalf("CSV has %d lines:\n%s", lines, csv)
	}
}

func TestCSVMissingValues(t *testing.T) {
	a := Series{Name: "a", Points: []Point{{X: 1, Y: 10}, {X: 2, Y: 20}}}
	b := Series{Name: "b", Points: []Point{{X: 2, Y: 200}}}
	fig := Figure{ID: "t", Series: []Series{a, b}}
	csv := fig.CSV()
	if !strings.Contains(csv, "\n1,10,\n") {
		t.Fatalf("missing-value row wrong:\n%s", csv)
	}
}

func TestTrimFloat(t *testing.T) {
	if trimFloat(100000) != "100000" {
		t.Errorf("integer formatting: %s", trimFloat(100000))
	}
	if trimFloat(1.25) != "1.25" {
		t.Errorf("fraction formatting: %s", trimFloat(1.25))
	}
}
