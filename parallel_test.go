package dreamsim_test

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"dreamsim"
	"dreamsim/internal/invariant"
)

// matrixBytes runs a small sweep of base at the given parallelism and
// returns its serialised form — the byte-level identity witness.
func matrixBytes(t *testing.T, base dreamsim.Params, parallel int) []byte {
	t.Helper()
	base.Parallelism = parallel
	m, err := dreamsim.RunMatrix(base, []int{20, 40}, []int{100, 200, 400}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dreamsim.SaveMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMatrixParallelDeterminism proves the tentpole guarantee: the
// matrix a parallel sweep assembles is byte-identical to the
// sequential one, for every worker count. The heterogeneous grid's
// units all share one CapKinds slice, so under the race detector a
// worker that writes through its copy of the Params races with the
// others.
func TestMatrixParallelDeterminism(t *testing.T) {
	for _, base := range []dreamsim.Params{dreamsim.DefaultParams(), heteroParams(0.6, 0.3)} {
		want := matrixBytes(t, base, 1)
		for _, workers := range []int{4, runtime.NumCPU()} {
			if got := matrixBytes(t, base, workers); !bytes.Equal(got, want) {
				t.Errorf("%d capability kinds, parallel=%d: sweep differs from sequential (%d vs %d bytes)",
					len(base.CapKinds), workers, len(got), len(want))
			}
		}
	}
}

// TestMatrixCellsMatchFreshRuns: a sweep's workers carry their run
// context, the task free list included, from unit to unit, through
// task counts that grow and shrink; every cell must still equal the
// same run made alone on a fresh context.
func TestMatrixCellsMatchFreshRuns(t *testing.T) {
	p := dreamsim.DefaultParams()
	for _, parallel := range []int{1, 2} {
		p.Parallelism = parallel
		m, err := dreamsim.RunMatrix(p, []int{20, 40}, []int{400, 100, 800}, nil)
		if err != nil {
			t.Fatal(err)
		}
		checkCellsMatchFreshRuns(t, p, m)
	}
}

// checkCellsMatchFreshRuns fails t unless every cell of m, a sweep
// over base, equals the same run made alone with dreamsim.Run, which
// builds a fresh context.
func checkCellsMatchFreshRuns(t *testing.T, base dreamsim.Params, m *dreamsim.Matrix) {
	t.Helper()
	for _, c := range m.Cells {
		for _, partial := range []bool{false, true} {
			q := base
			q.Nodes, q.Tasks, q.PartialReconfig = c.Nodes, c.Tasks, partial
			want, err := dreamsim.Run(q)
			if err != nil {
				t.Fatal(err)
			}
			got := c.Full
			if partial {
				got = c.Partial
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parallel=%d cell %d nodes/%d tasks partial=%v differs from a fresh run",
					base.Parallelism, c.Nodes, c.Tasks, partial)
			}
		}
	}
}

// The grid of the benchmark suite's paper-sweep workload: the paper's
// Table II node counts and three of its task counts.
var paperSweepNodes = []int{100, 200}
var paperSweepTasks = []int{2000, 5000, 10000}

// TestRepeatSweepReusesPooledContexts: a sweep gives its workers' run
// contexts back to a process-wide pool, so the process's next sweep
// finds warm task free lists, suspension arenas and event pools. It
// allocates a fraction of what the first sweep did and returns the
// same cells, also when an empty sweep ran in between: a sweep of no
// units leaves the pooled set alone. The sweeps are sequential: one
// context then runs every unit in the same order both times, whereas
// with two workers which context meets which run is up to the OS
// scheduler, and a context that meets a larger run in the second
// sweep grows.
func TestRepeatSweepReusesPooledContexts(t *testing.T) {
	if invariant.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop a random share of Puts")
	}
	if invariant.Enabled {
		t.Skip("the -tags invariants checks allocate on every run")
	}
	// Two collections empty the pool of the sets earlier tests left;
	// with the collector stopped, nothing empties it again.
	runtime.GC()
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	t.Cleanup(func() { debug.SetGCPercent(gcPercent) })

	p := dreamsim.DefaultParams()
	p.Parallelism = 1
	sweep := func() (*dreamsim.Matrix, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := dreamsim.RunMatrix(p, paperSweepNodes, paperSweepTasks, nil)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return m, after.TotalAlloc - before.TotalAlloc
	}
	first, cold := sweep()
	if _, err := dreamsim.RunMatrix(p, []int{}, []int{500}, nil); err != nil {
		t.Fatal(err)
	}
	second, warm := sweep()
	t.Logf("first sweep allocated %d bytes, second %d", cold, warm)
	if warm > cold/4 {
		t.Errorf("the second sweep allocated %d bytes, more than a quarter of the first's %d", warm, cold)
	}
	if !reflect.DeepEqual(first.Cells, second.Cells) {
		t.Error("the second sweep's cells differ from the first's")
	}
}

// TestConcurrentSweepsSharePool: two sweeps that run at once each take
// a worker set of their own from the pool (one of them the set a
// warm-up sweep gave back) and return the results of fresh runs.
func TestConcurrentSweepsSharePool(t *testing.T) {
	p := dreamsim.DefaultParams()
	p.Parallelism = 2
	if _, err := dreamsim.RunMatrix(p, []int{30, 60}, []int{300, 900}, nil); err != nil {
		t.Fatal(err)
	}
	mp := p
	mp.Seed = 3
	rp := p
	rp.Nodes, rp.Tasks = 40, 500
	seeds := dreamsim.Seeds(11, 4)

	var m *dreamsim.Matrix
	var got []dreamsim.MetricStats
	var mErr, rErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		m, mErr = dreamsim.RunMatrix(mp, []int{20, 40}, []int{400, 100, 800}, nil)
	}()
	go func() {
		defer wg.Done()
		got, rErr = dreamsim.RunReplicated(rp, seeds)
	}()
	wg.Wait()
	if mErr != nil || rErr != nil {
		t.Fatal(mErr, rErr)
	}
	checkCellsMatchFreshRuns(t, mp, m)

	// The same replication, run sequentially once the pool is empty.
	runtime.GC()
	runtime.GC()
	rp.Parallelism = 1
	want, err := dreamsim.RunReplicated(rp, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("the concurrent RunReplicated differs from a sequential one on a fresh context:\n%+v\n%+v", got, want)
	}
}

// TestFailedSweepThenCleanSweep: the contexts of a sweep whose runs
// fail mid-run go back to the pool without their task free lists (the
// failed runs kept them); the next sweep on those contexts must still
// return the results of fresh runs.
func TestFailedSweepThenCleanSweep(t *testing.T) {
	p := dreamsim.DefaultParams()
	p.Parallelism = 2
	grid := func(base dreamsim.Params) (*dreamsim.Matrix, error) {
		return dreamsim.RunMatrix(base, []int{20, 40}, []int{400, 100, 800}, nil)
	}
	if _, err := grid(p); err != nil { // warms the pooled contexts' free lists
		t.Fatal(err)
	}
	failing := p
	// A task's completion time overflows the clock.
	failing.TaskTimeRange = [2]int64{math.MaxInt64 - 5, math.MaxInt64 - 5}
	if _, err := grid(failing); err == nil {
		t.Fatal("a sweep whose tasks complete past the clock succeeded")
	}
	m, err := grid(p)
	if err != nil {
		t.Fatal(err)
	}
	checkCellsMatchFreshRuns(t, p, m)
}

// TestCompareParallelMatchesSequential checks the scenario halves of
// Compare produce identical results run concurrently or in sequence.
func TestCompareParallelMatchesSequential(t *testing.T) {
	p := dreamsim.DefaultParams()
	p.Nodes = 50
	p.Tasks = 500
	fullSeq, partSeq, err := dreamsim.Compare(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Parallelism = 2
	fullPar, partPar, err := dreamsim.Compare(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fullSeq, fullPar) || !reflect.DeepEqual(partSeq, partPar) {
		t.Error("parallel Compare differs from sequential")
	}
}

// TestRunReplicatedParallelDeterminism checks seed fan-out statistics
// are independent of the worker count.
func TestRunReplicatedParallelDeterminism(t *testing.T) {
	p := dreamsim.DefaultParams()
	p.Nodes = 50
	p.Tasks = 300
	seeds := dreamsim.Seeds(7, 5)
	seq, err := dreamsim.RunReplicated(p, seeds)
	if err != nil {
		t.Fatal(err)
	}
	p.Parallelism = 4
	par, err := dreamsim.RunReplicated(p, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("metric count differs: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("metric %s differs across worker counts: %+v vs %+v",
				seq[i].Name, seq[i], par[i])
		}
	}
}

// TestRunMatrixObservesEveryCell checks onCell fires exactly once per
// cell under parallel execution.
func TestRunMatrixObservesEveryCell(t *testing.T) {
	p := dreamsim.DefaultParams()
	p.Parallelism = 4
	var cells atomic.Int64
	m, err := dreamsim.RunMatrix(p, []int{20, 30}, []int{100, 200}, func(c dreamsim.Cell) {
		if c.Full.TotalTasks == 0 || c.Partial.TotalTasks == 0 {
			t.Errorf("cell %d/%d observed before both halves finished", c.Nodes, c.Tasks)
		}
		cells.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := cells.Load(); got != int64(len(m.Cells)) {
		t.Errorf("onCell fired %d times for %d cells", got, len(m.Cells))
	}
}

// TestObserverCallsAreSerialised: RunMatrix and RunScenarioSet
// document that their observer calls are serialised, so an observer
// may keep state without a lock of its own. Each observer here appends
// to a plain slice; under the race detector two calls that overlap are
// a data race, and without it an append can be lost.
func TestObserverCallsAreSerialised(t *testing.T) {
	p := dreamsim.DefaultParams()
	p.Parallelism = 4
	var cells []dreamsim.Cell
	m, err := dreamsim.RunMatrix(p, []int{20, 30}, []int{100, 200}, func(c dreamsim.Cell) {
		cells = append(cells, c)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(m.Cells) {
		t.Errorf("RunMatrix: onCell saw %d cells of %d", len(cells), len(m.Cells))
	}

	p.Nodes = 20
	var set []dreamsim.NamedScenario
	for _, tasks := range []int{100, 200, 300, 400} {
		set = append(set, dreamsim.NamedScenario{
			Name: fmt.Sprintf("steady-%d", tasks),
			Text: fmt.Sprintf("dreamsim-scenario v1\ntasks %d\nclass all\n  fraction 1\nend\n", tasks),
		})
	}
	var names []string
	if _, err := dreamsim.RunScenarioSet(p, set, func(c dreamsim.ScenarioCell) {
		names = append(names, c.Name)
	}); err != nil {
		t.Fatal(err)
	}
	if len(names) != len(set) {
		t.Errorf("RunScenarioSet: onCell saw %d cells of %d: %v", len(names), len(set), names)
	}
}

// TestDefaultParallelismFollowsGOMAXPROCS: the default worker count is
// the number of goroutines the scheduler runs at once, not the host's
// CPU count, so a sweep under a lower GOMAXPROCS builds no run context
// that would only wait for a thread.
func TestDefaultParallelismFollowsGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := dreamsim.DefaultParallelism(); got != 1 {
		t.Errorf("DefaultParallelism() = %d under GOMAXPROCS 1, want 1", got)
	}
}

// TestSweepsRejectTimelinePath: every unit of a sweep would create
// and overwrite the same timeline file, so each sweep helper refuses
// the path before any unit runs.
func TestSweepsRejectTimelinePath(t *testing.T) {
	set := []dreamsim.NamedScenario{{Name: "steady", Text: "dreamsim-scenario v1\ntasks 100\nclass all\n  fraction 1\nend\n"}}
	sweeps := []struct {
		name string
		run  func(dreamsim.Params) error
	}{
		{"Compare", func(p dreamsim.Params) error { _, _, err := dreamsim.Compare(p); return err }},
		{"RunMatrix", func(p dreamsim.Params) error {
			_, err := dreamsim.RunMatrix(p, []int{20}, []int{100}, nil)
			return err
		}},
		{"RunFigure", func(p dreamsim.Params) error {
			_, err := dreamsim.RunFigure(dreamsim.Fig6a, []int{100}, p)
			return err
		}},
		{"RunReplicated", func(p dreamsim.Params) error {
			_, err := dreamsim.RunReplicated(p, dreamsim.Seeds(1, 2))
			return err
		}},
		{"ComparePaired", func(p dreamsim.Params) error {
			_, err := dreamsim.ComparePaired(p, dreamsim.Seeds(1, 2))
			return err
		}},
		{"RunScenarioSet", func(p dreamsim.Params) error {
			_, err := dreamsim.RunScenarioSet(p, set, nil)
			return err
		}},
	}
	for _, sweep := range sweeps {
		t.Run(sweep.name, func(t *testing.T) {
			p := dreamsim.DefaultParams()
			p.Nodes, p.Tasks = 20, 100
			p.SampleEvery = 1
			p.TimelinePath = filepath.Join(t.TempDir(), "timeline.csv")
			if err := sweep.run(p); err == nil || !strings.Contains(err.Error(), "timeline") {
				t.Errorf("err %v, want a timeline rejection", err)
			}
			if _, err := os.Stat(p.TimelinePath); !os.IsNotExist(err) {
				t.Errorf("created the timeline file (stat: %v)", err)
			}
		})
	}
}

// TestRunMatrixRejectsDuplicateCoordinates covers the grid validation
// that replaced silent duplicate cells: a count given twice, or below
// 1, names no single cell and fails before any run.
func TestRunMatrixRejectsDuplicateCoordinates(t *testing.T) {
	p := dreamsim.DefaultParams()
	for _, bad := range []struct {
		nodes, tasks []int
		want         string
	}{
		{[]int{20, 20}, []int{100}, "dreamsim: duplicate node count 20"},
		{[]int{20}, []int{100, 100}, "dreamsim: duplicate task count 100"},
		{[]int{20, 0}, []int{100}, "dreamsim: node count 0"},
		{[]int{20}, []int{100, -5}, "dreamsim: task count -5"},
	} {
		if _, err := dreamsim.RunMatrix(p, bad.nodes, bad.tasks, nil); err == nil || err.Error() != bad.want {
			t.Errorf("grid %v x %v: err %v, want %q", bad.nodes, bad.tasks, err, bad.want)
		}
	}
}

// TestCellAtRowMajorLookup checks CellAt's row-major arithmetic
// against a plain scan of the cells, including for absent coordinates.
func TestCellAtRowMajorLookup(t *testing.T) {
	p := dreamsim.DefaultParams()
	m, err := dreamsim.RunMatrix(p, []int{30, 20}, []int{200, 100, 300}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range m.NodeCounts {
		for _, tc := range m.TaskCounts {
			var want *dreamsim.Cell
			for i := range m.Cells {
				if m.Cells[i].Nodes == n && m.Cells[i].Tasks == tc {
					want = &m.Cells[i]
				}
			}
			if c := m.CellAt(n, tc); c == nil || c != want {
				t.Fatalf("CellAt(%d, %d) = %p, the scan finds %p", n, tc, c, want)
			}
		}
	}
	for _, absent := range [][2]int{{999, 100}, {20, 999}} {
		if c := m.CellAt(absent[0], absent[1]); c != nil {
			t.Errorf("CellAt(%d, %d) = %+v, want nil", absent[0], absent[1], c)
		}
	}
}

// TestSweepErrorLabels: a failed unit's error names the unit by the
// label its helper gives it, wrapping the error the same run returns
// alone; Compare's units carry no label. Every unit here fails, so
// each helper reports its first unit, the full run of its first cell.
func TestSweepErrorLabels(t *testing.T) {
	set := []dreamsim.NamedScenario{{Name: "steady", Text: "dreamsim-scenario v1\ntasks 100\nclass all\n  fraction 1\nend\n"}}
	seeds := dreamsim.Seeds(7, 3)
	for _, tc := range []struct {
		name   string
		first  func(p dreamsim.Params) dreamsim.Params // the helper's unit 0
		prefix string
		run    func(dreamsim.Params) error
	}{
		{"Compare", func(p dreamsim.Params) dreamsim.Params { return p }, "",
			func(p dreamsim.Params) error { _, _, err := dreamsim.Compare(p); return err }},
		{"RunMatrix", func(p dreamsim.Params) dreamsim.Params { p.Nodes, p.Tasks = 20, 100; return p },
			"dreamsim: matrix cell 20 nodes/100 tasks: ",
			func(p dreamsim.Params) error {
				_, err := dreamsim.RunMatrix(p, []int{20, 30}, []int{100, 200}, nil)
				return err
			}},
		{"RunFigure", func(p dreamsim.Params) dreamsim.Params { p.Nodes, p.Tasks = 100, 100; return p },
			"dreamsim: figure 6a: dreamsim: matrix cell 100 nodes/100 tasks: ",
			func(p dreamsim.Params) error {
				_, err := dreamsim.RunFigure(dreamsim.Fig6a, []int{100, 200}, p)
				return err
			}},
		{"RunReplicated", func(p dreamsim.Params) dreamsim.Params { p.Seed = seeds[0]; return p },
			fmt.Sprintf("dreamsim: seed %d: ", seeds[0]),
			func(p dreamsim.Params) error { _, err := dreamsim.RunReplicated(p, seeds); return err }},
		{"ComparePaired", func(p dreamsim.Params) dreamsim.Params { p.Seed = seeds[0]; return p },
			fmt.Sprintf("dreamsim: seed %d: ", seeds[0]),
			func(p dreamsim.Params) error { _, err := dreamsim.ComparePaired(p, seeds); return err }},
		{"RunScenarioSet", func(p dreamsim.Params) dreamsim.Params { p.ScenarioText = set[0].Text; return p },
			`dreamsim: scenario "steady": `,
			func(p dreamsim.Params) error { _, err := dreamsim.RunScenarioSet(p, set, nil); return err }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := dreamsim.DefaultParams()
			p.Nodes, p.Tasks = 20, 100
			p.Parallelism = 2
			// A task's completion time overflows the clock.
			p.TaskTimeRange = [2]int64{math.MaxInt64 - 5, math.MaxInt64 - 5}
			_, runErr := dreamsim.Run(tc.first(p))
			if runErr == nil {
				t.Fatal("a run whose tasks complete past the clock succeeded")
			}
			want := tc.prefix + runErr.Error()
			if err := tc.run(p); err == nil || err.Error() != want {
				t.Errorf("err %v, want %q", err, want)
			}
		})
	}
}

// TestGridUnits pins the unit model RunMatrix and dreamserve share:
// cells in row-major order with node counts outer, the full run of
// cell i on unit 2i and its partial run on 2i+1, every other field
// taken from the base; and the errors, without a package prefix, for
// a count below 1 or given twice, node counts checked first.
func TestGridUnits(t *testing.T) {
	base := dreamsim.DefaultParams()
	base.Seed, base.Parallelism, base.PartialReconfig = 9, 3, true
	nodes, tasks := []int{30, 20}, []int{200, 100, 300}
	n, unit, err := dreamsim.GridUnits(base, nodes, tasks)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2*len(nodes)*len(tasks) {
		t.Fatalf("%d units for a %dx%d grid", n, len(nodes), len(tasks))
	}
	for u := 0; u < n; u++ {
		cell := u / 2
		want := base
		want.Nodes, want.Tasks = nodes[cell/len(tasks)], tasks[cell%len(tasks)]
		want.PartialReconfig = u%2 == 1
		if got := unit(u); !reflect.DeepEqual(got, want) {
			t.Errorf("unit %d: %d nodes, %d tasks, partial %v; want %d, %d, %v",
				u, got.Nodes, got.Tasks, got.PartialReconfig, want.Nodes, want.Tasks, want.PartialReconfig)
		}
	}
	if n, _, err := dreamsim.GridUnits(base, nil, tasks); n != 0 || err != nil {
		t.Errorf("a grid without node counts: %d units, err %v", n, err)
	}
	for _, bad := range []struct {
		nodes, tasks []int
		want         string
	}{
		{[]int{20, 0}, []int{100, 100}, "node count 0"},
		{[]int{-3}, []int{100}, "node count -3"},
		{[]int{20, 30, 20}, []int{0}, "duplicate node count 20"},
		{[]int{20}, []int{100, 0}, "task count 0"},
		{[]int{20}, []int{100, 200, 100}, "duplicate task count 100"},
	} {
		if _, _, err := dreamsim.GridUnits(base, bad.nodes, bad.tasks); err == nil || err.Error() != bad.want {
			t.Errorf("grid %v x %v: err %v, want %q", bad.nodes, bad.tasks, err, bad.want)
		}
	}
}
