package gridsim

import (
	"testing"

	"dreamsim/internal/model"
	"dreamsim/internal/rng"
	"dreamsim/internal/workload"
)

func baseParams(resources int) Params {
	return Params{
		Resources: resources,
		SpeedLow:  1, SpeedHigh: 1,
	}
}

func source(t *testing.T, tasks []*model.Task) workload.TaskSource {
	t.Helper()
	src, err := workload.SliceSource(tasks)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func mkTask(no int, create, req int64, pref int) *model.Task {
	return model.NewTask(no, 500, pref, req, create)
}

func TestValidate(t *testing.T) {
	bad := []Params{
		{Resources: 0, SpeedLow: 1, SpeedHigh: 1},
		{Resources: 1, SpeedLow: 0, SpeedHigh: 1},
		{Resources: 1, SpeedLow: 2, SpeedHigh: 1},
		{Resources: 1, SpeedLow: 1, SpeedHigh: 1, ReconfigurableShare: 2},
		{Resources: 1, SpeedLow: 1, SpeedHigh: 1, ReconfigurableShare: 0.5},
		{Resources: 1, SpeedLow: 1, SpeedHigh: 1, ReconfigurableShare: 0.5, Speedup: 2, ReconfigDelay: -1},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad params %d accepted: %+v", i, p)
		}
	}
	ok := baseParams(3)
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGenResources(t *testing.T) {
	p := Params{Resources: 100, SpeedLow: 0.5, SpeedHigh: 2,
		ReconfigurableShare: 0.4, Speedup: 5, ReconfigDelay: 15}
	rs, err := GenResources(rng.New(1), &p)
	if err != nil {
		t.Fatal(err)
	}
	reconf := 0
	for _, r := range rs {
		if r.Reconfigurable {
			reconf++
			// Speedup applied on top of the GPP range.
			if r.Speed < 0.5*5 || r.Speed > 2*5 {
				t.Fatalf("reconfigurable speed %v out of range", r.Speed)
			}
			if r.ReconfigDelay != 15 {
				t.Fatal("reconfig delay not set")
			}
		} else if r.Speed < 0.5 || r.Speed > 2 {
			t.Fatalf("GPP speed %v out of range", r.Speed)
		}
	}
	if reconf < 20 || reconf > 60 {
		t.Fatalf("reconfigurable share implausible: %d/100", reconf)
	}
}

func TestRunSingleResourceSerializes(t *testing.T) {
	tasks := []*model.Task{
		mkTask(0, 0, 100, 1),
		mkTask(1, 0, 200, 2),
		mkTask(2, 0, 300, 3),
	}
	res, err := Run(baseParams(1), source(t, tasks))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != 3 || res.Makespan != 600 {
		t.Fatalf("serial run: %+v", res)
	}
	// Waits: 0, 100, 300 -> avg 133.33.
	if res.AvgWaitPerTask < 133 || res.AvgWaitPerTask > 134 {
		t.Fatalf("avg wait %v", res.AvgWaitPerTask)
	}
	if res.AvgUtilization != 1 {
		t.Fatalf("single busy resource utilization %v", res.AvgUtilization)
	}
}

func TestRunParallelism(t *testing.T) {
	tasks := []*model.Task{
		mkTask(0, 0, 300, 1),
		mkTask(1, 0, 300, 2),
		mkTask(2, 0, 300, 3),
	}
	res, err := Run(baseParams(3), source(t, tasks))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 300 || res.AvgWaitPerTask != 0 {
		t.Fatalf("parallel run: %+v", res)
	}
}

func TestSpeedScalesRuntime(t *testing.T) {
	p := baseParams(1)
	p.SpeedLow, p.SpeedHigh = 2, 2
	res, err := Run(p, source(t, []*model.Task{mkTask(0, 0, 1000, 1)}))
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 500 {
		t.Fatalf("2x speed makespan %d, want 500", res.Makespan)
	}
}

func TestReconfigDelayCharged(t *testing.T) {
	p := Params{Resources: 1, SpeedLow: 1, SpeedHigh: 1,
		ReconfigurableShare: 1, Speedup: 1, ReconfigDelay: 50}
	// Two tasks preferring different functions: two switches.
	tasks := []*model.Task{mkTask(0, 0, 100, 1), mkTask(1, 0, 100, 2)}
	res, err := Run(p, source(t, tasks))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSwitches != 2 {
		t.Fatalf("switches %d, want 2", res.TotalSwitches)
	}
	if res.Makespan != 50+100+50+100 {
		t.Fatalf("makespan %d, want 300", res.Makespan)
	}
	// Same function twice: one switch.
	tasks = []*model.Task{mkTask(0, 0, 100, 1), mkTask(1, 0, 100, 1)}
	res, err = Run(p, source(t, tasks))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSwitches != 1 || res.Makespan != 250 {
		t.Fatalf("reuse run: %+v", res)
	}
}

func TestCRGridSimFasterThanGridSim(t *testing.T) {
	// Same workload through pure GPPs and through a pool with
	// speedup-5 reconfigurable elements: CRGridSim-style must win.
	spec := workload.TableII(0, 300)
	spec.Nodes = 1 // unused by gridsim; satisfies validation
	r := rng.New(9)
	configs := workload.GenConfigs(r.Split(), &spec)
	gen, err := workload.NewGenerator(r, &spec, configs)
	if err != nil {
		t.Fatal(err)
	}
	tasks := workload.Drain(gen)

	gpp := baseParams(20)
	resGPP, err := Run(gpp, source(t, tasks))
	if err != nil {
		t.Fatal(err)
	}
	cr := gpp
	cr.ReconfigurableShare = 1
	cr.Speedup = 5
	cr.ReconfigDelay = 15
	resCR, err := Run(cr, source(t, tasks))
	if err != nil {
		t.Fatal(err)
	}
	if !(resCR.Makespan < resGPP.Makespan) {
		t.Fatalf("speedup did not shorten makespan: %d vs %d", resCR.Makespan, resGPP.Makespan)
	}
	if !(resCR.AvgWaitPerTask < resGPP.AvgWaitPerTask) {
		t.Fatalf("speedup did not cut waits: %v vs %v", resCR.AvgWaitPerTask, resGPP.AvgWaitPerTask)
	}
}

func TestRunEmptySource(t *testing.T) {
	res, err := Run(baseParams(2), source(t, nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != 0 || res.Makespan != 0 || res.AvgWaitPerTask != 0 {
		t.Fatalf("empty run: %+v", res)
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	if _, err := Run(Params{}, source(t, nil)); err == nil {
		t.Fatal("invalid params accepted")
	}
}
