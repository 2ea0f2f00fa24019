package dreamsim_test

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"dreamsim"
)

func quick(tasks int) dreamsim.Params {
	p := dreamsim.DefaultParams()
	p.Nodes = 50
	p.Tasks = tasks
	return p
}

func TestDefaultParamsMatchTableII(t *testing.T) {
	p := dreamsim.DefaultParams()
	if p.Nodes != 200 || p.Configs != 50 || p.NextTaskMaxInterval != 50 ||
		p.TaskTimeRange != [2]int64{100, 100000} ||
		p.ConfigAreaRange != [2]int64{200, 2000} ||
		p.ConfigTimeRange != [2]int64{10, 20} ||
		p.NodeAreaRange != [2]int64{1000, 4000} ||
		p.ClosestMatchPct != 0.15 {
		t.Fatalf("defaults drifted from Table II: %+v", p)
	}
}

func TestRunBasics(t *testing.T) {
	res, err := dreamsim.Run(quick(500))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalTasks != 500 {
		t.Fatalf("total tasks %d", res.TotalTasks)
	}
	if res.CompletedTasks+res.TotalDiscardedTasks != 500 {
		t.Fatal("task accounting broken")
	}
	if res.Scenario != "partial" || !strings.Contains(res.Policy, "best-fit") {
		t.Fatalf("scenario/policy: %s/%s", res.Scenario, res.Policy)
	}
	if res.TotalSimulationTime <= 0 || res.TotalUsedNodes == 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

func TestRunRejectsBadParams(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*dreamsim.Params)
	}{
		{"unknown placement", func(p *dreamsim.Params) { p.Placement = "quantum-fit" }},
		{"zero nodes", func(p *dreamsim.Params) { p.Nodes = 0 }},
		// Oversized populations must fail validation, not panic in
		// set-up's allocations.
		{"oversized nodes", func(p *dreamsim.Params) { p.Nodes = 1 << 62 }},
		{"oversized configs", func(p *dreamsim.Params) { p.Configs = 1 << 62 }},
		// A negative window would keep the full series and write no
		// timeline file.
		{"negative window", func(p *dreamsim.Params) {
			p.SampleEvery, p.WindowSamples, p.TimelinePath = 1, -5, filepath.Join(t.TempDir(), "neg.csv")
		}},
	} {
		p := quick(100)
		tc.mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted", tc.name)
		}
		if _, err := dreamsim.Run(p); err == nil {
			t.Errorf("%s: Run accepted", tc.name)
		}
	}
}

func TestCompareSharesSeed(t *testing.T) {
	full, partial, err := dreamsim.Compare(quick(800))
	if err != nil {
		t.Fatal(err)
	}
	if full.Scenario != "full" || partial.Scenario != "partial" {
		t.Fatalf("scenarios: %s/%s", full.Scenario, partial.Scenario)
	}
	if full.Seed != partial.Seed || full.TotalTasks != partial.TotalTasks {
		t.Fatal("compare did not share inputs")
	}
	// The headline result of the paper.
	if !(partial.AvgWastedAreaPerTask < full.AvgWastedAreaPerTask) {
		t.Fatalf("wasted area partial %.1f !< full %.1f",
			partial.AvgWastedAreaPerTask, full.AvgWastedAreaPerTask)
	}
}

func TestDeterministicAcrossCalls(t *testing.T) {
	a, err := dreamsim.Run(quick(400))
	if err != nil {
		t.Fatal(err)
	}
	b, err := dreamsim.Run(quick(400))
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgWaitingTimePerTask != b.AvgWaitingTimePerTask ||
		a.TotalSchedulerWorkload != b.TotalSchedulerWorkload {
		t.Fatal("same params diverged")
	}
}

func TestTableAndXMLOutputs(t *testing.T) {
	res, err := dreamsim.Run(quick(300))
	if err != nil {
		t.Fatal(err)
	}
	tbl := res.TableI()
	if !strings.Contains(tbl, "avg_wasted_area_per_task") {
		t.Fatalf("TableI missing rows:\n%s", tbl)
	}
	var buf bytes.Buffer
	if err := res.WriteXML(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "simulation-report") {
		t.Fatal("XML output wrong")
	}
	full, partial, err := dreamsim.Compare(quick(300))
	if err != nil {
		t.Fatal(err)
	}
	cmp := dreamsim.CompareTable(full, partial)
	if !strings.Contains(cmp, "full") || !strings.Contains(cmp, "partial") {
		t.Fatalf("CompareTable:\n%s", cmp)
	}
}

func TestTraceRoundTripThroughAPI(t *testing.T) {
	p := quick(300)
	var buf bytes.Buffer
	if err := dreamsim.GenerateTrace(&buf, p); err != nil {
		t.Fatal(err)
	}
	direct, err := dreamsim.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := dreamsim.RunTrace(&buf, p)
	if err != nil {
		t.Fatal(err)
	}
	if direct.AvgWaitingTimePerTask != traced.AvgWaitingTimePerTask ||
		direct.CompletedTasks != traced.CompletedTasks {
		t.Fatal("trace-driven run diverged from synthetic run")
	}
}

func TestRunTraceRejectsGarbage(t *testing.T) {
	if _, err := dreamsim.RunTrace(strings.NewReader("junk"), quick(10)); err == nil {
		t.Fatal("garbage trace accepted")
	}
}

func TestFigureRegistry(t *testing.T) {
	ids := dreamsim.FigureIDs()
	if len(ids) != 9 {
		t.Fatalf("expected 9 figures, got %d", len(ids))
	}
	if _, err := dreamsim.RunFigure("99z", []int{100}, dreamsim.DefaultParams()); err == nil {
		t.Fatal("unknown figure accepted")
	}
}

func TestScaledTaskCounts(t *testing.T) {
	got := dreamsim.ScaledTaskCounts(10000)
	want := []int{1000, 2000, 5000, 10000}
	if len(got) != len(want) {
		t.Fatalf("ScaledTaskCounts: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ScaledTaskCounts: %v", got)
		}
	}
	if tiny := dreamsim.ScaledTaskCounts(10); len(tiny) != 1 || tiny[0] != 10 {
		t.Fatalf("tiny grid: %v", tiny)
	}
}

// TestFigureShapesSmall regenerates every figure on a reduced grid and
// checks the paper's curve ordering is reproduced.
func TestFigureShapesSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("figure sweep")
	}
	base := dreamsim.DefaultParams()
	grid := []int{1000, 2000}
	for _, id := range dreamsim.FigureIDs() {
		fig, err := dreamsim.RunFigure(id, grid, base)
		if err != nil {
			t.Fatal(err)
		}
		if !fig.ShapeHolds() {
			t.Errorf("figure %s shape not reproduced:\n%s", id, fig.Table())
		}
		if len(fig.With) != len(grid) || len(fig.Without) != len(grid) {
			t.Fatalf("figure %s series lengths wrong", id)
		}
		csv := fig.CSV()
		if !strings.Contains(csv, "with partial configuration") {
			t.Fatalf("figure %s CSV:\n%s", id, csv)
		}
		plotted := fig.Plot()
		if !strings.Contains(plotted, "+ = with partial configuration") {
			t.Fatalf("figure %s plot:\n%s", id, plotted)
		}
		if !strings.Contains(fig.Summary(), "REPRODUCED") {
			t.Errorf("figure %s summary: %s", id, fig.Summary())
		}
	}
}

func TestSortedPhaseNames(t *testing.T) {
	res, err := dreamsim.Run(quick(200))
	if err != nil {
		t.Fatal(err)
	}
	names := dreamsim.SortedPhaseNames(res)
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("phase names unsorted: %v", names)
		}
	}
}

func TestAblationKnobs(t *testing.T) {
	p := quick(400)
	p.DisableSuspension = true
	res, err := dreamsim.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalDiscardedTasks == 0 {
		t.Fatal("suspension off produced no discards under overload")
	}
	p = quick(400)
	p.LoadBalance = true
	res, err = dreamsim.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Policy, "+lb") {
		t.Fatalf("policy: %s", res.Policy)
	}
	p = quick(400)
	p.PoissonArrivals = true
	if _, err := dreamsim.Run(p); err != nil {
		t.Fatal(err)
	}
	p = quick(400)
	p.BitstreamBandwidth = 8000
	p.DataBandwidth = 4000
	p.NetworkDelayRange = [2]int64{5, 15}
	if _, err := dreamsim.Run(p); err != nil {
		t.Fatal(err)
	}
}

func TestWorkloadShapeKnobs(t *testing.T) {
	// Heavy-tailed runtimes: most tasks are short, so mean turnaround
	// falls well below the uniform-runtime run on the same seed.
	base := quick(600)
	uni, err := dreamsim.Run(base)
	if err != nil {
		t.Fatal(err)
	}
	heavy := base
	heavy.TaskTimeDistribution = "lognormal"
	ln, err := dreamsim.Run(heavy)
	if err != nil {
		t.Fatal(err)
	}
	if !(ln.AvgRunningTimePerTask < uni.AvgRunningTimePerTask) {
		t.Fatalf("lognormal turnaround %v !< uniform %v",
			ln.AvgRunningTimePerTask, uni.AvgRunningTimePerTask)
	}
	heavy.TaskTimeDistribution = "pareto"
	if _, err := dreamsim.Run(heavy); err != nil {
		t.Fatal(err)
	}
	heavy.TaskTimeDistribution = "cauchy"
	if _, err := dreamsim.Run(heavy); err == nil {
		t.Fatal("unknown distribution accepted")
	}

	// Popularity skew: with Zipf Cprefs, allocations (configuration
	// reuse) become more common than under uniform popularity.
	pop := quick(600)
	pop.ConfigPopularity = 1.5
	popular, err := dreamsim.Run(pop)
	if err != nil {
		t.Fatal(err)
	}
	if !(popular.Phases["allocate"] > uni.Phases["allocate"]) {
		t.Fatalf("popularity skew did not raise reuse: %d vs %d",
			popular.Phases["allocate"], uni.Phases["allocate"])
	}
}
