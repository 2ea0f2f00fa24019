package resinfo_test

import (
	"testing"

	"dreamsim/internal/invariant"
	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
	"dreamsim/internal/resinfo"
)

// searchBench owns one manager plus the reusable scratch a steady-state
// search/transition cycle needs (the eviction slice and the probe task
// live outside the measured loop).
type searchBench struct {
	m     *resinfo.Manager
	nodes []*model.Node
	cfgs  []*model.Config
	evict [1]*model.Entry
	task  model.Task
}

func newSearchBench(tb testing.TB, nodeCount int, opts ...resinfo.Option) *searchBench {
	tb.Helper()
	nodes, cfgs := population(1234, nodeCount, 30, nil)
	m, err := resinfo.New(nodes, cfgs, &metrics.Counters{}, opts...)
	if err != nil {
		tb.Fatal(err)
	}
	return &searchBench{m: m, nodes: nodes, cfgs: cfgs}
}

// cycle is one steady-state round: the placement-search queries the
// scheduler issues per decision, plus a configure → start → finish →
// evict transition so the scan block pays its full maintenance cost
// (blank, partial and busy state and the block bounds all move). The node returns to
// blank, so every round sees the same state.
func (sb *searchBench) cycle(tb testing.TB, i int) {
	cfg := sb.cfgs[i%len(sb.cfgs)]
	m := sb.m

	m.BestPartiallyBlankNode(cfg)
	m.AnyBusyNodeCouldFit(cfg)
	m.FindClosestConfig(cfg.ReqArea)
	m.FindPreferredConfig(cfg.No)

	n := m.BestBlankNode(cfg)
	if n == nil {
		return // capability-less population always has a blank fit
	}
	e, err := m.Configure(n, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	sb.task = model.Task{No: i, AssignedConfig: -1}
	if err := m.StartTask(e, &sb.task); err != nil {
		tb.Fatal(err)
	}
	if _, err := m.FinishTask(n, &sb.task); err != nil {
		tb.Fatal(err)
	}
	sb.evict[0] = e
	if err := m.EvictIdle(n, sb.evict[:]); err != nil {
		tb.Fatal(err)
	}
}

// suspendBench is a saturated 1,000-node population and a probe
// configuration every placement phase fails for: each partial node
// runs tasks on two regions and keeps too little free area, no region
// of the probe's configuration exists, and the busy-fit check sends
// the task to the suspension queue.
type suspendBench struct {
	m     *resinfo.Manager
	nodes []*model.Node
	probe *model.Config
	tasks []model.Task // tasks[2*i+1] runs on node i's second region
}

func newSuspendBench(tb testing.TB) *suspendBench {
	tb.Helper()
	const nodes = 1000
	ns := make([]*model.Node, nodes)
	for i := range ns {
		ns[i] = model.NewNode(i, 2000, true)
	}
	cfgs := []*model.Config{
		{No: 0, ReqArea: 900, ConfigTime: 10},
		{No: 1, ReqArea: 1000, ConfigTime: 10},
		{No: 2, ReqArea: 1050, ConfigTime: 10},
	}
	m, err := resinfo.New(ns, cfgs, &metrics.Counters{})
	if err != nil {
		tb.Fatal(err)
	}
	sb := &suspendBench{m: m, nodes: ns, probe: cfgs[2], tasks: make([]model.Task, 2*nodes)}
	for i, n := range ns {
		for j, cfg := range cfgs[:2] {
			e, err := m.Configure(n, cfg)
			if err != nil {
				tb.Fatal(err)
			}
			sb.tasks[2*i+j] = model.Task{No: 2*i + j, AssignedConfig: -1}
			if err := m.StartTask(e, &sb.tasks[2*i+j]); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return sb
}

// cycle releases and restarts the second region of one node, which
// leaves its block's reclaimable-area bound above the probe's request,
// then runs the four placement phases of one decision for the probe:
// Algorithm 1 visits that block and tightens its bound, skips every
// other block, and the task suspends.
func (sb *suspendBench) cycle(tb testing.TB, i int) {
	m := sb.m
	n := sb.nodes[i%len(sb.nodes)]
	task := &sb.tasks[2*n.No+1]
	e, err := m.FinishTask(n, task)
	if err != nil {
		tb.Fatal(err)
	}
	if err := m.StartTask(e, task); err != nil {
		tb.Fatal(err)
	}

	cfg := m.FindPreferredConfig(sb.probe.No)
	if m.Idle(cfg.No).Len() != 0 || m.BestBlankNode(cfg) != nil ||
		m.BestPartiallyBlankNode(cfg) != nil {
		tb.Fatal("a placement phase found room in the saturated population")
	}
	if n, _ := m.FindAnyIdleNode(cfg); n != nil {
		tb.Fatalf("Algorithm 1 reclaimed node %d in the saturated population", n.No)
	}
	if !m.AnyBusyNodeCouldFit(cfg) {
		tb.Fatal("no busy node could fit the probe: it would be discarded, not suspended")
	}
}

// BenchmarkSearch measures the placement searches with their
// transition maintenance: the query+transition cycle on the 150-node
// population (the sweep grid's largest cell), then a decision that
// fails every phase and suspends on 1,000 saturated nodes. It must
// report 0 allocs/op: entries recycle through the manager's pool and
// the scans read the SoA arrays only. CI gates on the allocs/op
// column.
func BenchmarkSearch(b *testing.B) {
	sb := newSearchBench(b, 150)
	sus := newSuspendBench(b)
	for i := 0; i < 64; i++ {
		sb.cycle(b, i) // warm the entry pool
		sus.cycle(b, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.cycle(b, i)
		sus.cycle(b, i)
	}
}

// TestSearchZeroAlloc is the test-suite form of the benchmark gate.
func TestSearchZeroAlloc(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate their message arguments")
	}
	if invariant.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	sb := newSearchBench(t, 150)
	sus := newSuspendBench(t)
	for i := 0; i < 64; i++ {
		sb.cycle(t, i)
		sus.cycle(t, i)
	}
	i := 64
	if avg := testing.AllocsPerRun(500, func() { sb.cycle(t, i); sus.cycle(t, i); i++ }); avg != 0 {
		t.Fatalf("placement search allocates: %.1f allocs/op", avg)
	}
}

// TestBlankAndCrashZeroAlloc gates the two transitions that strip a
// whole node, which a run takes rarely: BlankNode (defragmentation) and
// CrashNode with RecoverNode. Each cycle fills a partial node with
// three regions, one of them running a task, and strips it one way,
// then the other. Both pool the removed regions for the next
// Configure, the node keeps its Entries array, and CrashNode returns
// the displaced task in the manager's buffer.
func TestBlankAndCrashZeroAlloc(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate their message arguments")
	}
	if invariant.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	node := model.NewNode(0, 3000, true)
	cfgs := []*model.Config{{No: 0, ReqArea: 1000, ConfigTime: 10}}
	m, err := resinfo.New([]*model.Node{node}, cfgs, &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	var task model.Task
	fill := func() {
		for i := 0; i < 3; i++ {
			e, err := m.Configure(node, cfgs[0])
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				task = model.Task{AssignedConfig: -1}
				if err := m.StartTask(e, &task); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cycle := func() {
		fill()
		if _, err := m.FinishTask(node, &task); err != nil {
			t.Fatal(err)
		}
		if err := m.BlankNode(node); err != nil {
			t.Fatal(err)
		}
		fill()
		displaced, err := m.CrashNode(node)
		if err != nil {
			t.Fatal(err)
		}
		if len(displaced) != 1 || displaced[0] != &task {
			t.Fatalf("the crash displaced %v, want the one running task", displaced)
		}
		if err := m.RecoverNode(node); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if avg := testing.AllocsPerRun(200, cycle); avg != 0 {
		t.Fatalf("blanking and crashing a node allocate: %.1f allocs/op", avg)
	}
}
