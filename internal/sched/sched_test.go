package sched

import (
	"strings"
	"testing"

	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
	"dreamsim/internal/resinfo"
	"dreamsim/internal/rng"
)

// rig builds a manager over partial-mode (or full-mode) nodes of the
// given total areas and configs of the given required areas.
func rig(t *testing.T, nodeAreas, cfgAreas []int64, partial bool) *resinfo.Manager {
	t.Helper()
	var nodes []*model.Node
	for i, a := range nodeAreas {
		nodes = append(nodes, model.NewNode(i, a, partial))
	}
	var configs []*model.Config
	for i, a := range cfgAreas {
		configs = append(configs, &model.Config{No: i, ReqArea: a, ConfigTime: 12})
	}
	m, err := resinfo.New(nodes, configs, &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func task(no, pref int, area int64) *model.Task {
	return model.NewTask(no, area, pref, 1000, 0)
}

func mustApply(t *testing.T, m *resinfo.Manager, tk *model.Task, d Decision) *model.Entry {
	t.Helper()
	e, _, err := Apply(m, tk, d)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestPhaseAllocationBestFit(t *testing.T) {
	m := rig(t, []int64{4000, 2000, 3000}, []int64{500}, true)
	p := New(Options{})
	cfg := m.Configs()[0]
	for _, n := range m.Nodes() {
		if _, err := m.Configure(n, cfg); err != nil {
			t.Fatal(err)
		}
	}
	d := p.Decide(m, task(0, 0, 500))
	if d.Action != ActAllocate {
		t.Fatalf("action = %s, want allocate", d.Action)
	}
	if d.Entry.Node.No != 1 { // min AvailableArea (1500)
		t.Fatalf("best-fit picked node %d", d.Entry.Node.No)
	}
	if d.ClosestMatch {
		t.Fatal("exact match flagged as closest")
	}
}

func TestPhaseConfigurationBlankNode(t *testing.T) {
	m := rig(t, []int64{4000, 1200, 2500}, []int64{1000}, true)
	p := New(Options{})
	d := p.Decide(m, task(0, 0, 1000))
	if d.Action != ActConfigure {
		t.Fatalf("action = %s, want configure", d.Action)
	}
	if d.Node.No != 1 { // min sufficient TotalArea
		t.Fatalf("configure picked node %d", d.Node.No)
	}
}

func TestPhasePartialConfiguration(t *testing.T) {
	m := rig(t, []int64{4000, 3000}, []int64{1000, 600}, true)
	p := New(Options{})
	// Occupy both nodes with C0 + running tasks so no idle entry and
	// no blank node remain.
	for i, n := range m.Nodes() {
		e, err := m.Configure(n, m.Configs()[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := m.StartTask(e, task(100+i, 0, 1000)); err != nil {
			t.Fatal(err)
		}
	}
	// C1 (600) fits in free fabric: node0 has 3000 free, node1 2000.
	d := p.Decide(m, task(0, 1, 600))
	if d.Action != ActPartialConfigure {
		t.Fatalf("action = %s, want partial-configure", d.Action)
	}
	if d.Node.No != 1 { // min sufficient AvailableArea (2000)
		t.Fatalf("partial-configure picked node %d", d.Node.No)
	}
}

func TestPhaseReconfigure(t *testing.T) {
	m := rig(t, []int64{1500}, []int64{1400, 1200}, true)
	p := New(Options{})
	// Node holds idle C0 (1400), avail 100. C1 (1200) does not fit in
	// free fabric, no blank node: Alg. 1 must evict the idle C0.
	if _, err := m.Configure(m.Nodes()[0], m.Configs()[0]); err != nil {
		t.Fatal(err)
	}
	d := p.Decide(m, task(0, 1, 1200))
	if d.Action != ActReconfigure {
		t.Fatalf("action = %s, want reconfigure", d.Action)
	}
	if len(d.Evict) != 1 || d.Evict[0].Config.No != 0 {
		t.Fatalf("evictions = %v", d.Evict)
	}
	tk := task(1, 1, 1200)
	e := mustApply(t, m, tk, d)
	if e.Config.No != 1 || m.Nodes()[0].AvailableArea != 300 {
		t.Fatalf("after reconfigure: %v avail=%d", e, m.Nodes()[0].AvailableArea)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSuspendVsDiscard(t *testing.T) {
	m := rig(t, []int64{2000}, []int64{1800, 1500}, true)
	p := New(Options{})
	e, _ := m.Configure(m.Nodes()[0], m.Configs()[0])
	if err := m.StartTask(e, task(100, 0, 1800)); err != nil {
		t.Fatal(err)
	}
	// C1 (1500) can't be placed now, but the busy node could fit it
	// later (TotalArea 2000 >= 1500): suspend.
	d := p.Decide(m, task(0, 1, 1500))
	if d.Action != ActSuspend {
		t.Fatalf("action = %s, want suspend", d.Action)
	}
	// A task whose config fits no node at all: discard (config list
	// has nothing >= 2500 so resolve fails).
	d = p.Decide(m, task(1, 99, 2500))
	if d.Action != ActDiscard {
		t.Fatalf("action = %s, want discard", d.Action)
	}
}

func TestDiscardWhenNoBusyCandidateAndNoSuspension(t *testing.T) {
	m := rig(t, []int64{2000}, []int64{1800, 1900}, true)
	e, _ := m.Configure(m.Nodes()[0], m.Configs()[0])
	_ = m.StartTask(e, task(100, 0, 1800))
	// Suspension disabled: would-be-suspend becomes discard.
	p := New(Options{DisableSuspension: true})
	d := p.Decide(m, task(0, 1, 1900))
	if d.Action != ActDiscard {
		t.Fatalf("action = %s, want discard with suspension off", d.Action)
	}
}

func TestClosestMatchFallback(t *testing.T) {
	m := rig(t, []int64{4000}, []int64{300, 900, 600}, true)
	p := New(Options{})
	// Pref config 77 does not exist; needed area 500 → closest is C2 (600).
	d := p.Decide(m, task(0, 77, 500))
	if !d.ClosestMatch || d.Config.No != 2 {
		t.Fatalf("closest match = %+v", d)
	}
	if d.Action != ActConfigure {
		t.Fatalf("action = %s", d.Action)
	}
}

func TestFullModeFlow(t *testing.T) {
	m := rig(t, []int64{3000, 2500}, []int64{1000, 800}, false)
	p := New(Options{})

	// First task: configure a blank node (best fit: node1, 2500).
	t0 := task(0, 0, 1000)
	d := p.Decide(m, t0)
	if d.Action != ActConfigure || d.Node.No != 1 {
		t.Fatalf("first: %v", d)
	}
	mustApply(t, m, t0, d)

	// Second task same config: node1 is busy; configure node0.
	t1 := task(1, 0, 1000)
	d = p.Decide(m, t1)
	if d.Action != ActConfigure || d.Node.No != 0 {
		t.Fatalf("second: %v", d)
	}
	mustApply(t, m, t1, d)

	// Third task, different config: both nodes busy → suspend.
	t2 := task(2, 1, 800)
	d = p.Decide(m, t2)
	if d.Action != ActSuspend {
		t.Fatalf("third: %v", d)
	}

	// Finish task on node1; in full mode the idle node keeps C0.
	if _, err := m.FinishTask(m.Nodes()[1], t0); err != nil {
		t.Fatal(err)
	}
	// New C1 task: no blank node, no partial config in full mode —
	// reconfigure the idle node (evict C0).
	t3 := task(3, 1, 800)
	d = p.Decide(m, t3)
	if d.Action != ActReconfigure || d.Node.No != 1 || len(d.Evict) != 1 {
		t.Fatalf("fourth: %v", d)
	}
	mustApply(t, m, t3, d)
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Full-mode node after reconfigure: exactly one config, one task.
	if len(m.Nodes()[1].Entries) != 1 || m.Nodes()[1].RunningTasks() != 1 {
		t.Fatalf("full-mode node corrupted: %v", m.Nodes()[1])
	}
}

func TestFullModeIdleEntryOnBusyNodeUnusable(t *testing.T) {
	// A full-mode node holds at most one region, so once it runs a
	// task it has no idle region for a second task to allocate.
	m := rig(t, []int64{3000}, []int64{1000}, false)
	p := New(Options{})
	t0 := task(0, 0, 1000)
	mustApply(t, m, t0, p.Decide(m, t0))
	d := p.Decide(m, task(1, 0, 1000))
	if d.Action == ActAllocate {
		t.Fatalf("allocated onto busy full-mode node: %v", d)
	}
}

// TestAllocateBesideRunningTask: in partial mode an idle region is
// allocatable while its node runs a task on another region.
func TestAllocateBesideRunningTask(t *testing.T) {
	m := rig(t, []int64{4000}, []int64{500, 600}, true)
	n := m.Nodes()[0]
	e0, _ := m.Configure(n, m.Configs()[0])
	e1, _ := m.Configure(n, m.Configs()[1])
	if err := m.StartTask(e0, task(0, 0, 500)); err != nil {
		t.Fatal(err)
	}
	for _, pl := range []Placement{BestFit, FirstFit, WorstFit, RandomFit} {
		p := New(Options{Placement: pl, RNG: rng.New(1)})
		if d := p.Decide(m, task(1, 1, 600)); d.Action != ActAllocate || d.Entry != e1 {
			t.Errorf("%s: %v, want allocate on the idle C1 region", pl, d)
		}
	}
	if d := New(Options{}).DecideOnNode(m, task(2, 1, 600), n); d.Action != ActAllocate || d.Entry != e1 {
		t.Errorf("DecideOnNode: %v, want allocate on the idle C1 region", d)
	}
}

func TestPlacementVariants(t *testing.T) {
	setup := func() (*resinfo.Manager, *model.Config) {
		m := rig(t, []int64{4000, 2000, 3000}, []int64{500}, true)
		cfg := m.Configs()[0]
		for _, n := range m.Nodes() {
			if _, err := m.Configure(n, cfg); err != nil {
				t.Fatal(err)
			}
		}
		return m, cfg
	}

	m, _ := setup()
	d := New(Options{Placement: WorstFit}).Decide(m, task(0, 0, 500))
	if d.Action != ActAllocate || d.Entry.Node.No != 0 { // max avail (3500)
		t.Fatalf("worst-fit: %v", d)
	}

	m, _ = setup()
	d = New(Options{Placement: FirstFit}).Decide(m, task(0, 0, 500))
	if d.Action != ActAllocate || d.Entry == nil {
		t.Fatalf("first-fit: %v", d)
	}
	// First-fit returns the head of the idle list (last configured).
	if d.Entry.Node.No != 2 {
		t.Fatalf("first-fit picked node %d, want head node 2", d.Entry.Node.No)
	}

	m, _ = setup()
	d = New(Options{Placement: RandomFit, RNG: rng.New(1)}).Decide(m, task(0, 0, 500))
	if d.Action != ActAllocate || d.Entry == nil {
		t.Fatalf("random-fit: %v", d)
	}
}

func TestRandomFitWithoutRNGPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("RandomFit without RNG accepted")
		}
	}()
	New(Options{Placement: RandomFit})
}

func TestLoadBalanceTieBreak(t *testing.T) {
	// Two nodes with identical geometry and identical residency; one
	// runs an extra task on a second region. LoadBalance must prefer
	// the emptier node; plain best-fit prefers the busier one (its
	// AvailableArea is smaller after hosting the extra config).
	m := rig(t, []int64{4000, 4000}, []int64{500, 400}, true)
	cfg := m.Configs()[0]
	e0, _ := m.Configure(m.Nodes()[0], cfg)
	_, _ = m.Configure(m.Nodes()[1], cfg)
	_ = e0
	// Node 0 additionally runs a C1 task: fewer free area, more load.
	e2, _ := m.Configure(m.Nodes()[0], m.Configs()[1])
	_ = m.StartTask(e2, task(100, 1, 400))

	// Plain best-fit: node0 (avail 3100) beats node1 (avail 3500).
	d := New(Options{}).Decide(m, task(0, 0, 500))
	if d.Entry.Node.No != 0 {
		t.Fatalf("best-fit baseline picked node %d", d.Entry.Node.No)
	}
	// Same areas → same primary key? No: areas differ (3100 vs 3500),
	// so LB cannot override the primary. Equalise areas first.
	e3, _ := m.Configure(m.Nodes()[1], m.Configs()[1])
	_ = e3 // now both nodes: avail 3100, node0 runs 1 task, node1 runs 0.
	d = New(Options{LoadBalance: true}).Decide(m, task(1, 0, 500))
	if d.Entry.Node.No != 1 {
		t.Fatalf("load-balanced pick = node %d, want idle node 1", d.Entry.Node.No)
	}
}

func TestDecideOnNodePaths(t *testing.T) {
	m := rig(t, []int64{3000}, []int64{1000, 800, 2800}, true)
	p := New(Options{})
	n := m.Nodes()[0]

	// Allocation path: idle C0 region present.
	e, _ := m.Configure(n, m.Configs()[0])
	d := p.DecideOnNode(m, task(0, 0, 1000), n)
	if d.Action != ActAllocate || d.Entry != e {
		t.Fatalf("allocate path: %v", d)
	}

	// Partial-configuration path: C1 fits free fabric (2000 free).
	d = p.DecideOnNode(m, task(1, 1, 800), n)
	if d.Action != ActPartialConfigure || d.Node != n {
		t.Fatalf("partial-configure path: %v", d)
	}

	// Reconfigure path: C2 (2800) needs the idle C0 evicted.
	d = p.DecideOnNode(m, task(2, 2, 2800), n)
	if d.Action != ActReconfigure || len(d.Evict) != 1 {
		t.Fatalf("reconfigure path: %v", d)
	}

	// Stay-queued path: occupy everything, ask for the impossible.
	tk := task(3, 2, 2800)
	mustApply(t, m, tk, d)
	d = p.DecideOnNode(m, task(4, 2, 2800), n)
	if d.Action != ActSuspend {
		t.Fatalf("stay-queued path: %v", d)
	}

	// Configuration path: blank node.
	m2 := rig(t, []int64{3000}, []int64{1000}, true)
	d = p.DecideOnNode(m2, task(5, 0, 1000), m2.Nodes()[0])
	if d.Action != ActConfigure {
		t.Fatalf("configure path: %v", d)
	}

	// Discard path: no config large enough for the task at all.
	d = p.DecideOnNode(m2, task(6, 9, 5000), m2.Nodes()[0])
	if d.Action != ActDiscard {
		t.Fatalf("discard path: %v", d)
	}
}

// TestDecideOnNodeExactFit: every area check of the targeted retry
// accepts an exact fit. A blank node whose TotalArea equals the
// configuration's ReqArea is configured (in either mode), free fabric
// equal to it is partially configured, and free plus idle area that
// reaches it exactly is reclaimed, evicting the idle regions up to and
// including the one that reaches it, and no further.
func TestDecideOnNodeExactFit(t *testing.T) {
	p := New(Options{})
	for _, partial := range []bool{true, false} {
		m := rig(t, []int64{1000}, []int64{1000}, partial)
		if d := p.DecideOnNode(m, task(0, 0, 1000), m.Nodes()[0]); d.Action != ActConfigure {
			t.Errorf("partial=%v: blank node of exactly ReqArea: %v, want configure", partial, d)
		}
	}

	// C0 runs on a 3,000-unit node, leaving 2,000 free: exactly C1.
	m := rig(t, []int64{3000}, []int64{1000, 2000}, true)
	n := m.Nodes()[0]
	e, _ := m.Configure(n, m.Configs()[0])
	if err := m.StartTask(e, task(100, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	if d := p.DecideOnNode(m, task(1, 1, 2000), n); d.Action != ActPartialConfigure || d.Node != n {
		t.Errorf("free fabric of exactly ReqArea: %v, want partial-configure", d)
	}

	// C0 (1,000) runs beside idle C1 (500) and C2 (700), leaving 800
	// free. C3 needs 1,300: the free fabric plus C1 reach it exactly,
	// so C1 alone is evicted and C2 stays.
	m = rig(t, []int64{3000}, []int64{1000, 500, 700, 1300}, true)
	n = m.Nodes()[0]
	busy, _ := m.Configure(n, m.Configs()[0])
	if err := m.StartTask(busy, task(100, 0, 1000)); err != nil {
		t.Fatal(err)
	}
	c1, _ := m.Configure(n, m.Configs()[1])
	if _, err := m.Configure(n, m.Configs()[2]); err != nil {
		t.Fatal(err)
	}
	if n.AvailableArea != 800 {
		t.Fatalf("AvailableArea = %d, want 800", n.AvailableArea)
	}
	d := p.DecideOnNode(m, task(2, 3, 1300), n)
	if d.Action != ActReconfigure || len(d.Evict) != 1 || d.Evict[0] != c1 {
		t.Fatalf("free plus idle area of exactly ReqArea: %v evicting %v, want reconfigure evicting only C1", d, d.Evict)
	}
	mustApply(t, m, task(2, 3, 1300), d)
	if n.AvailableArea != 0 {
		t.Fatalf("after the exact reclaim AvailableArea = %d, want 0", n.AvailableArea)
	}
}

func TestDecideOnNodeFullModeBusyReclaim(t *testing.T) {
	// Full-mode node with a running task cannot be reclaimed even if
	// idle area would suffice (there is none by construction, but the
	// guard must hold): expect suspend.
	m := rig(t, []int64{3000}, []int64{1000, 900}, false)
	p := New(Options{})
	t0 := task(0, 0, 1000)
	mustApply(t, m, t0, p.Decide(m, t0))
	d := p.DecideOnNode(m, task(1, 1, 900), m.Nodes()[0])
	if d.Action != ActSuspend {
		t.Fatalf("busy full-mode reclaim: %v", d)
	}
}

func TestApplyRejectsBadDecisions(t *testing.T) {
	m := rig(t, []int64{3000}, []int64{1000}, true)
	tk := task(0, 0, 1000)
	if _, _, err := Apply(m, tk, Decision{Action: ActSuspend}); err == nil {
		t.Fatal("suspend applied")
	}
	if _, _, err := Apply(m, tk, Decision{Action: ActDiscard}); err == nil {
		t.Fatal("discard applied")
	}
	if _, _, err := Apply(m, tk, Decision{Action: ActAllocate}); err == nil {
		t.Fatal("allocate without entry applied")
	}
	if _, _, err := Apply(m, tk, Decision{Action: ActConfigure}); err == nil {
		t.Fatal("configure without node applied")
	}
	if _, _, err := Apply(m, tk, Decision{Action: ActReconfigure, Node: m.Nodes()[0], Config: m.Configs()[0]}); err == nil {
		t.Fatal("reconfigure without evictions applied")
	}
}

func TestApplyReturnsConfigDelay(t *testing.T) {
	m := rig(t, []int64{3000}, []int64{1000}, true)
	p := New(Options{})
	t0 := task(0, 0, 1000)
	d := p.Decide(m, t0)
	_, delay, err := Apply(m, t0, d)
	if err != nil {
		t.Fatal(err)
	}
	if delay != 12 { // ConfigTime of the rig's configs
		t.Fatalf("configure delay = %d, want 12", delay)
	}
	// Allocation after completion has zero config delay.
	if _, err := m.FinishTask(m.Nodes()[0], t0); err != nil {
		t.Fatal(err)
	}
	t1 := task(1, 0, 1000)
	d = p.Decide(m, t1)
	_, delay, err = Apply(m, t1, d)
	if err != nil || d.Action != ActAllocate {
		t.Fatalf("%v %v", d, err)
	}
	if delay != 0 {
		t.Fatalf("allocation delay = %d, want 0", delay)
	}
}

func TestStringers(t *testing.T) {
	for _, a := range []Action{ActAllocate, ActConfigure, ActPartialConfigure, ActReconfigure, ActSuspend, ActDiscard, Action(99)} {
		if a.String() == "" {
			t.Fatal("empty Action string")
		}
	}
	for _, pl := range []Placement{BestFit, FirstFit, WorstFit, RandomFit, Placement(9)} {
		if pl.String() == "" {
			t.Fatal("empty Placement string")
		}
	}
	m := rig(t, []int64{3000}, []int64{1000}, true)
	p := New(Options{})
	d := p.Decide(m, task(0, 0, 1000))
	if !strings.Contains(d.String(), "configure") || !strings.Contains(d.String(), "N0") {
		t.Fatalf("decision string: %s", d)
	}
	if d.TargetNode() == nil || !d.Places() {
		t.Fatal("TargetNode/Places wrong for configure")
	}
	sus := Decision{Action: ActSuspend}
	if sus.TargetNode() != nil || sus.Places() {
		t.Fatal("TargetNode/Places wrong for suspend")
	}
	if New(Options{LoadBalance: true, DisableSuspension: true}).Name() != "paper/best-fit+lb-nosus" {
		t.Fatalf("policy name: %s", New(Options{LoadBalance: true, DisableSuspension: true}).Name())
	}
}
