package dreamsim_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dreamsim"
)

func TestRunGraphLinearChain(t *testing.T) {
	// Three tasks in a strict chain: the makespan must be at least
	// the sum of their required times (plus configuration overhead).
	tasks := []dreamsim.GraphTask{
		{ID: 0, RequiredTime: 1000, PrefConfig: 1, NeededArea: 500, SubmitTime: 0},
		{ID: 1, RequiredTime: 2000, PrefConfig: 2, NeededArea: 500, SubmitTime: 1, DependsOn: []int{0}},
		{ID: 2, RequiredTime: 3000, PrefConfig: 3, NeededArea: 500, SubmitTime: 2, DependsOn: []int{1}},
	}
	p := dreamsim.DefaultParams()
	p.Nodes = 10
	p.SampleEvery = 1
	res, err := dreamsim.RunGraph(tasks, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedTasks != 3 || res.TotalDiscardedTasks != 0 {
		t.Fatalf("completions: %+v", res)
	}
	if res.TotalSimulationTime < 6000 {
		t.Fatalf("makespan %d ignores the dependency chain", res.TotalSimulationTime)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("a sampled graph run recorded no timeline")
	}
}

// TestRunGraphStreamsTimeline: RunGraph honours WindowSamples and
// TimelinePath as Run does: the windows come back and stream to the
// file, one row each under a header.
func TestRunGraphStreamsTimeline(t *testing.T) {
	p := dreamsim.DefaultParams()
	p.Nodes = 50
	p.Seed = 3
	wl, err := dreamsim.RandomLayeredGraph(p, 6, 5, 0.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.SampleEvery = 1
	p.WindowSamples = 8
	p.TimelinePath = filepath.Join(t.TempDir(), "graph.csv")
	res, err := dreamsim.RunGraph(wl.Tasks, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Windows) == 0 {
		t.Fatal("a windowed graph run returned no windows")
	}
	rows, err := os.ReadFile(p.TimelinePath)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(rows), "\n"); n != int(res.WindowsTotal)+1 {
		t.Fatalf("timeline file holds %d lines for %d windows", n, res.WindowsTotal)
	}
}

func TestRunGraphParallelFasterThanChain(t *testing.T) {
	p := dreamsim.DefaultParams()
	p.Nodes = 20
	var chain, fan []dreamsim.GraphTask
	for i := 0; i < 8; i++ {
		ct := dreamsim.GraphTask{ID: i, RequiredTime: 5000, PrefConfig: i, NeededArea: 500, SubmitTime: int64(i)}
		ft := ct
		if i > 0 {
			ct.DependsOn = []int{i - 1}
		}
		chain = append(chain, ct)
		fan = append(fan, ft)
	}
	resChain, err := dreamsim.RunGraph(chain, p)
	if err != nil {
		t.Fatal(err)
	}
	resFan, err := dreamsim.RunGraph(fan, p)
	if err != nil {
		t.Fatal(err)
	}
	if !(resFan.TotalSimulationTime < resChain.TotalSimulationTime) {
		t.Fatalf("independent tasks (%d) not faster than chained (%d)",
			resFan.TotalSimulationTime, resChain.TotalSimulationTime)
	}
	if resChain.TotalSimulationTime < 8*5000 {
		t.Fatalf("chain makespan %d below serial bound", resChain.TotalSimulationTime)
	}
}

func TestRunGraphDiscardCascade(t *testing.T) {
	// Task 0 needs more area than any configuration/node offers, so it
	// is discarded — and its dependants with it.
	tasks := []dreamsim.GraphTask{
		{ID: 0, RequiredTime: 100, PrefConfig: 999999, NeededArea: 50000, SubmitTime: 0},
		{ID: 1, RequiredTime: 100, PrefConfig: 1, NeededArea: 500, SubmitTime: 1, DependsOn: []int{0}},
		{ID: 2, RequiredTime: 100, PrefConfig: 2, NeededArea: 500, SubmitTime: 2, DependsOn: []int{1}},
		{ID: 3, RequiredTime: 100, PrefConfig: 3, NeededArea: 500, SubmitTime: 3},
	}
	p := dreamsim.DefaultParams()
	p.Nodes = 10
	res, err := dreamsim.RunGraph(tasks, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDiscardedTasks != 3 {
		t.Fatalf("discard cascade: %d discarded, want 3", res.TotalDiscardedTasks)
	}
	if res.CompletedTasks != 1 {
		t.Fatalf("completions: %d, want 1", res.CompletedTasks)
	}
}

func TestRunGraphValidation(t *testing.T) {
	p := dreamsim.DefaultParams()
	if _, err := dreamsim.RunGraph(nil, p); err == nil {
		t.Fatal("empty workload accepted")
	}
	dup := []dreamsim.GraphTask{
		{ID: 0, RequiredTime: 100, PrefConfig: 1, NeededArea: 500},
		{ID: 0, RequiredTime: 100, PrefConfig: 1, NeededArea: 500},
	}
	if _, err := dreamsim.RunGraph(dup, p); err == nil {
		t.Fatal("duplicate IDs accepted")
	}
	fwd := []dreamsim.GraphTask{
		{ID: 0, RequiredTime: 100, PrefConfig: 1, NeededArea: 500, DependsOn: []int{1}},
		{ID: 1, RequiredTime: 100, PrefConfig: 1, NeededArea: 500},
	}
	if _, err := dreamsim.RunGraph(fwd, p); err == nil {
		t.Fatal("forward dependency accepted")
	}
	bad := []dreamsim.GraphTask{{ID: 0, RequiredTime: 0, PrefConfig: 1, NeededArea: 500}}
	if _, err := dreamsim.RunGraph(bad, p); err == nil {
		t.Fatal("invalid task accepted")
	}
}

func TestRandomLayeredGraph(t *testing.T) {
	p := dreamsim.DefaultParams()
	p.Nodes = 50
	p.Seed = 3
	wl, err := dreamsim.RandomLayeredGraph(p, 6, 5, 0.4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(wl.Tasks) < 6 || wl.CriticalPath <= 0 || wl.TotalWork < wl.CriticalPath {
		t.Fatalf("workload bounds: %+v", wl)
	}
	res, err := dreamsim.RunGraph(wl.Tasks, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedTasks+res.TotalDiscardedTasks != int64(len(wl.Tasks)) {
		t.Fatal("graph accounting broken")
	}
	// Makespan cannot beat the critical path (dependencies serialise).
	if res.CompletedTasks == int64(len(wl.Tasks)) && res.TotalSimulationTime < wl.CriticalPath {
		t.Fatalf("makespan %d beat the critical path %d", res.TotalSimulationTime, wl.CriticalPath)
	}
	// Layered graphs resolve exact-match configurations most of the
	// time (IDs are drawn against the same seed-derived config list).
	if res.Phases["closest-match"] > int64(len(wl.Tasks)/2) {
		t.Fatalf("too many closest matches: %d of %d", res.Phases["closest-match"], len(wl.Tasks))
	}
	if _, err := dreamsim.RandomLayeredGraph(p, 0, 5, 0.4, 1); err == nil {
		t.Fatal("zero layers accepted")
	}
}

func TestRunGraphBothScenarios(t *testing.T) {
	// A wide DAG on few nodes: contention makes the partial-mode
	// advantage (multiple tasks per node) show up as a shorter
	// makespan, the robust end-to-end metric for DAG workloads.
	p := dreamsim.DefaultParams()
	p.Nodes = 8
	wl, err := dreamsim.RandomLayeredGraph(p, 10, 24, 0.3, 1)
	if err != nil {
		t.Fatal(err)
	}
	p.PartialReconfig = false
	full, err := dreamsim.RunGraph(wl.Tasks, p)
	if err != nil {
		t.Fatal(err)
	}
	p.PartialReconfig = true
	part, err := dreamsim.RunGraph(wl.Tasks, p)
	if err != nil {
		t.Fatal(err)
	}
	// RunGraph mutates nothing in wl; both runs see identical DAGs.
	if full.TotalTasks != part.TotalTasks {
		t.Fatal("scenarios saw different workloads")
	}
	if !(part.TotalSimulationTime < full.TotalSimulationTime) {
		t.Fatalf("graph makespan partial %d !< full %d",
			part.TotalSimulationTime, full.TotalSimulationTime)
	}
	// Neither beats the critical path when everything completes.
	if part.CompletedTasks == part.TotalTasks && part.TotalSimulationTime < wl.CriticalPath {
		t.Fatalf("partial makespan %d beat critical path %d", part.TotalSimulationTime, wl.CriticalPath)
	}
}
