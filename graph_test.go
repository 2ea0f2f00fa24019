package dreamsim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	quickcheck "testing/quick"

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

// TestRunGraphRerunsIdentically runs one random layered graph five
// times in one process and requires equal Results. Go randomises the
// iteration order of every map range, so a run whose dispatch order
// followed the order of the dependency map (which of a parent's
// children is released first) would differ from run to run.
func TestRunGraphRerunsIdentically(t *testing.T) {
	p := dreamsim.DefaultParams()
	p.Nodes = 4
	wl, err := dreamsim.RandomLayeredGraph(p, 6, 30, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	first, err := dreamsim.RunGraph(wl.Tasks, p)
	if err != nil {
		t.Fatal(err)
	}
	for run := 2; run <= 5; run++ {
		again, err := dreamsim.RunGraph(wl.Tasks, p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(again, first) {
			t.Fatalf("run %d of one graph differs from run 1 (average wait %.2f against %.2f): the result depends on map iteration order",
				run, again.AvgWaitingTimePerTask, first.AvgWaitingTimePerTask)
		}
	}
}

// TestRunGraphRenumbersIDs: graph IDs are only names. A parent and a
// child with a negative ID, with two negative IDs, or with IDs 2^40
// apart run as the same graph numbered 0 and 1 does, and the sparse one
// allocates nothing sized by its largest ID (the engine's dependency
// tables take about 40 bytes per task number).
func TestRunGraphRenumbersIDs(t *testing.T) {
	p := dreamsim.DefaultParams()
	p.Nodes = 10
	graph := func(parent, child int) []dreamsim.GraphTask {
		return []dreamsim.GraphTask{
			{ID: parent, RequiredTime: 1000, PrefConfig: 1, NeededArea: 500},
			{ID: child, RequiredTime: 500, PrefConfig: 1, NeededArea: 500, SubmitTime: 1, DependsOn: []int{parent}},
		}
	}
	want, err := dreamsim.RunGraph(graph(0, 1), p)
	if err != nil {
		t.Fatal(err)
	}
	for _, ids := range [][2]int{{0, -1}, {-7, -3}, {0, 1 << 40}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := dreamsim.RunGraph(graph(ids[0], ids[1]), p)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("IDs %v: %v", ids, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("IDs %v: result differs from the graph numbered 0 and 1", ids)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
			t.Errorf("IDs %v: a two-task graph allocated %d bytes", ids, alloc)
		}
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

// layeredShapes are the (layers, width, edge probability, submit gap)
// shapes the RandomLayeredGraph tests draw, from a single task to a
// 10-level, 24-wide graph, with edges never, sometimes and always.
var layeredShapes = []struct {
	layers, width int
	edgeProb      float64
	gap           int64
}{
	{1, 1, 0, 0}, {3, 4, 0.4, 1}, {6, 5, 0.4, 1}, {8, 6, 1, 3},
	{5, 3, 0, 2}, {10, 24, 0.3, 1}, {4, 1, 0.5, 5}, {2, 8, 0.7, 0},
}

// TestRandomLayeredGraphShapes: bad shapes and workloads are rejected;
// a seed gives one graph; tasks are numbered in slice order and every
// dependency names an earlier task; the critical path is at most the
// total work; and a width-1 graph is a chain whose critical path is
// its total work.
func TestRandomLayeredGraphShapes(t *testing.T) {
	p := dreamsim.DefaultParams()
	noConfigs := p
	noConfigs.Configs = 0
	for _, bad := range []struct {
		p             dreamsim.Params
		layers, width int
		edgeProb      float64
		gap           int64
	}{
		{p, 0, 3, 0.5, 1}, {p, 3, 0, 0.5, 1}, {p, 3, 3, 1.5, 1},
		{p, 3, 3, -0.1, 1}, {p, 3, 3, 0.5, -1}, {noConfigs, 3, 3, 0.5, 1},
	} {
		if _, err := dreamsim.RandomLayeredGraph(bad.p, bad.layers, bad.width, bad.edgeProb, bad.gap); err == nil {
			t.Errorf("shape %d layers x %d wide, edges %v, gap %d, %d configs accepted",
				bad.layers, bad.width, bad.edgeProb, bad.gap, bad.p.Configs)
		}
	}

	for seed := uint64(1); seed <= 20; seed++ {
		for _, sh := range layeredShapes {
			p.Seed = seed
			wl, err := dreamsim.RandomLayeredGraph(p, sh.layers, sh.width, sh.edgeProb, sh.gap)
			if err != nil {
				t.Fatal(err)
			}
			again, err := dreamsim.RandomLayeredGraph(p, sh.layers, sh.width, sh.edgeProb, sh.gap)
			if err != nil || !reflect.DeepEqual(wl, again) {
				t.Fatalf("seed %d, shape %+v: two draws differ (%v)", seed, sh, err)
			}
			if n := len(wl.Tasks); n < sh.layers || n > sh.layers*sh.width {
				t.Fatalf("seed %d, shape %+v: %d tasks", seed, sh, n)
			}
			if wl.CriticalPath <= 0 || wl.CriticalPath > wl.TotalWork {
				t.Fatalf("seed %d, shape %+v: critical path %d, total work %d",
					seed, sh, wl.CriticalPath, wl.TotalWork)
			}
			var work int64
			for i, gt := range wl.Tasks {
				work += gt.RequiredTime
				if gt.ID != i || gt.SubmitTime != int64(i)*sh.gap {
					t.Fatalf("seed %d, shape %+v: task %d has ID %d, submit %d", seed, sh, i, gt.ID, gt.SubmitTime)
				}
				if sh.width == 1 && i > 0 && !reflect.DeepEqual(gt.DependsOn, []int{i - 1}) {
					t.Fatalf("seed %d, shape %+v: chain task %d depends on %v", seed, sh, i, gt.DependsOn)
				}
				for _, d := range gt.DependsOn {
					if d >= i {
						t.Fatalf("seed %d, shape %+v: task %d depends on later task %d", seed, sh, i, d)
					}
				}
			}
			if work != wl.TotalWork {
				t.Fatalf("seed %d, shape %+v: total work %d, tasks sum to %d", seed, sh, wl.TotalWork, work)
			}
			if sh.width == 1 && (len(wl.Tasks) != sh.layers || wl.CriticalPath != wl.TotalWork) {
				t.Fatalf("seed %d: width-1 graph of %d tasks, critical path %d, total work %d",
					seed, len(wl.Tasks), wl.CriticalPath, wl.TotalWork)
			}
		}
	}
}

// TestRandomLayeredGraphDigest pins the generator's output: the JSON
// of 80 graphs (seeds 1-10 on every layeredShapes shape) hashes to a
// fixed digest, which any change to the draws, their order, the
// dependency lists or either bound moves.
func TestRandomLayeredGraphDigest(t *testing.T) {
	const want = "659d771f8f6966830d6de73d5c785c2db93da421aff6cd5856c401ee5d150a9a"
	h := sha256.New()
	for _, sh := range layeredShapes {
		for seed := uint64(1); seed <= 10; seed++ {
			p := dreamsim.DefaultParams()
			p.Seed = seed
			wl, err := dreamsim.RandomLayeredGraph(p, sh.layers, sh.width, sh.edgeProb, sh.gap)
			if err != nil {
				t.Fatal(err)
			}
			blob, err := json.Marshal(wl)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(blob)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("RandomLayeredGraph digest %s, want %s", got, want)
	}
}

// TestCriticalPath checks the one-pass critical path against a
// longest-chain search that walks the graph the other way: from each
// task through its dependants, memoised, starting from the tasks that
// depend on nothing. Seeds 1-20 on every layeredShapes shape.
func TestCriticalPath(t *testing.T) {
	for _, sh := range layeredShapes {
		for seed := uint64(1); seed <= 20; seed++ {
			p := dreamsim.DefaultParams()
			p.Seed = seed
			wl, err := dreamsim.RandomLayeredGraph(p, sh.layers, sh.width, sh.edgeProb, sh.gap)
			if err != nil {
				t.Fatal(err)
			}
			dependants := make([][]int, len(wl.Tasks))
			for i, gt := range wl.Tasks {
				for _, d := range gt.DependsOn {
					dependants[d] = append(dependants[d], i)
				}
			}
			from := make([]int64, len(wl.Tasks)) // longest chain starting at task i; 0 = not yet known
			var longest func(i int) int64
			longest = func(i int) int64 {
				if from[i] == 0 {
					var tail int64
					for _, c := range dependants[i] {
						tail = max(tail, longest(c))
					}
					from[i] = wl.Tasks[i].RequiredTime + tail
				}
				return from[i]
			}
			var want int64
			for i, gt := range wl.Tasks {
				if len(gt.DependsOn) == 0 {
					want = max(want, longest(i))
				}
			}
			if wl.CriticalPath != want {
				t.Errorf("seed %d, shape %+v: critical path %d, the longest chain is %d",
					seed, sh, wl.CriticalPath, want)
			}
		}
	}
}

// TestQuickLayeredInvariants: over random shapes, seeds and edge
// probabilities, the first level's tasks, and only they, depend on
// nothing; every dependency list names earlier tasks in increasing
// order; task attributes stay inside the parameters' ranges; and the
// critical path is positive and at most the total work.
func TestQuickLayeredInvariants(t *testing.T) {
	p := dreamsim.DefaultParams()
	f := func(seed uint16, layers, width, prob, gap uint8) bool {
		p.Seed = uint64(seed)
		l, w := int(layers%6)+1, int(width%5)+1
		wl, err := dreamsim.RandomLayeredGraph(p, l, w, float64(prob)/255, int64(gap%4))
		if err != nil || len(wl.Tasks) < l || len(wl.Tasks) > l*w {
			return false
		}
		roots := 0
		for roots < len(wl.Tasks) && len(wl.Tasks[roots].DependsOn) == 0 {
			roots++
		}
		if roots < 1 || roots > w {
			return false
		}
		for i, gt := range wl.Tasks {
			if i >= roots && len(gt.DependsOn) == 0 {
				return false
			}
			for k, d := range gt.DependsOn {
				if d >= i || (k > 0 && d <= gt.DependsOn[k-1]) {
					return false
				}
			}
			if gt.RequiredTime < p.TaskTimeRange[0] || gt.RequiredTime > p.TaskTimeRange[1] ||
				gt.NeededArea < p.ConfigAreaRange[0] || gt.NeededArea > p.ConfigAreaRange[1] ||
				gt.PrefConfig < 0 {
				return false
			}
		}
		return wl.CriticalPath > 0 && wl.CriticalPath <= wl.TotalWork
	}
	if err := quickcheck.Check(f, &quickcheck.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestRandomLayeredGraphRejectsClockOverflow: submit times are
// multiples of the gap, and the first task whose submit time would
// pass the int64 clock fails the draw by its ID.
func TestRandomLayeredGraphRejectsClockOverflow(t *testing.T) {
	p := dreamsim.DefaultParams()
	wl, err := dreamsim.RandomLayeredGraph(p, 2, 1, 0, math.MaxInt64)
	if err != nil || wl.Tasks[1].SubmitTime != math.MaxInt64 {
		t.Fatalf("a chain of 2 tasks with the last at the clock's end: %+v, %v", wl.Tasks, err)
	}
	const want = "dreamsim: task 2 submits past the clock's range"
	for _, gap := range []int64{math.MaxInt64, 1 << 62} {
		if _, err := dreamsim.RandomLayeredGraph(p, 3, 4, 0.5, gap); err == nil || err.Error() != want {
			t.Errorf("gap %d: err %v, want %q", gap, err, want)
		}
	}
}
