package resinfo

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
	"dreamsim/internal/rng"
	"dreamsim/internal/snapshot"
)

// rig builds a manager with n partial-mode nodes of the given areas
// and configs of the given required areas.
func rig(t *testing.T, nodeAreas, cfgAreas []int64, partial bool) (*Manager, *metrics.Counters) {
	t.Helper()
	var nodes []*model.Node
	for i, a := range nodeAreas {
		nodes = append(nodes, model.NewNode(i, a, partial))
	}
	var configs []*model.Config
	for i, a := range cfgAreas {
		configs = append(configs, &model.Config{No: i, ReqArea: a, ConfigTime: 10 + int64(i)})
	}
	c := &metrics.Counters{}
	m, err := New(nodes, configs, c)
	if err != nil {
		t.Fatal(err)
	}
	return m, c
}

func TestNewValidation(t *testing.T) {
	c := &metrics.Counters{}
	_, err := New(nil, []*model.Config{{No: 1, ReqArea: 5}, {No: 1, ReqArea: 6}}, c)
	if err == nil {
		t.Fatal("duplicate config numbers accepted")
	}
	_, err = New(nil, []*model.Config{{No: 0, ReqArea: 5}, {No: 2, ReqArea: 6}}, c)
	if err == nil {
		t.Fatal("config numbers other than positions accepted")
	}
	_, err = New(nil, []*model.Config{{No: 1, ReqArea: 0}}, c)
	if err == nil {
		t.Fatal("invalid config accepted")
	}
	m, err := New(nil, nil, c)
	if err != nil || m == nil {
		t.Fatal("empty manager rejected")
	}
}

func TestCountersShape(t *testing.T) {
	_, c := rig(t, []int64{1000, 2000}, []int64{500}, true)
	if c.TotalNodes != 2 || c.TotalConfigs != 1 {
		t.Fatalf("shape counters: %d nodes, %d configs", c.TotalNodes, c.TotalConfigs)
	}
}

func TestFindPreferredConfig(t *testing.T) {
	m, c := rig(t, nil, []int64{200, 300, 400}, true)
	before := c.SchedulerSearch
	if cfg := m.FindPreferredConfig(1); cfg == nil || cfg.No != 1 {
		t.Fatalf("FindPreferredConfig(1) = %v", cfg)
	}
	if c.SchedulerSearch-before != 2 { // linear scan hits it at position 2
		t.Errorf("search steps = %d, want 2", c.SchedulerSearch-before)
	}
	before = c.SchedulerSearch
	if cfg := m.FindPreferredConfig(99); cfg != nil {
		t.Fatalf("absent config found: %v", cfg)
	}
	if c.SchedulerSearch-before != 3 { // a miss walks the whole list
		t.Errorf("miss charged %d steps, want 3", c.SchedulerSearch-before)
	}
}

func TestFindClosestConfig(t *testing.T) {
	m, _ := rig(t, nil, []int64{200, 2000, 800, 500}, true)
	// Minimum ReqArea >= 450 is 500.
	if cfg := m.FindClosestConfig(450); cfg == nil || cfg.ReqArea != 500 {
		t.Fatalf("FindClosestConfig(450) = %v", cfg)
	}
	// Exact boundary.
	if cfg := m.FindClosestConfig(2000); cfg == nil || cfg.ReqArea != 2000 {
		t.Fatalf("FindClosestConfig(2000) = %v", cfg)
	}
	// Nothing big enough.
	if cfg := m.FindClosestConfig(2001); cfg != nil {
		t.Fatalf("FindClosestConfig(2001) = %v", cfg)
	}
	// An area tie goes to the first configuration in list order, and
	// every search charges the whole list.
	m, c := rig(t, nil, []int64{900, 600, 300, 600}, true)
	if cfg := m.FindClosestConfig(450); cfg == nil || cfg.No != 1 {
		t.Fatalf("FindClosestConfig(450) over a tie = %v, want C1", cfg)
	}
	if c.SchedulerSearch != 4 {
		t.Errorf("search steps = %d, want 4", c.SchedulerSearch)
	}
}

func TestConfigureAndLists(t *testing.T) {
	m, c := rig(t, []int64{3000}, []int64{500, 700}, true)
	n := m.Nodes()[0]
	e, err := m.Configure(n, m.Configs()[0])
	if err != nil {
		t.Fatal(err)
	}
	if m.Idle(0).Len() != 1 || !e.InIdle || c.HousekeepingSteps != 1 {
		t.Fatalf("configured region: idle list %d, housekeeping %d", m.Idle(0).Len(), c.HousekeepingSteps)
	}
	if c.Reconfigurations != 1 || c.ConfigurationTime != 10 {
		t.Fatalf("reconfig accounting: count=%d time=%d", c.Reconfigurations, c.ConfigurationTime)
	}
	task := model.NewTask(1, 500, 0, 100, 0)
	if err := m.StartTask(e, task); err != nil {
		t.Fatal(err)
	}
	// The paper's move to the busy list: an unlink and a link.
	if m.Idle(0).Len() != 0 || e.InIdle || c.HousekeepingSteps != 3 {
		t.Fatalf("started region: idle list %d, housekeeping %d", m.Idle(0).Len(), c.HousekeepingSteps)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	got, err := m.FinishTask(n, task)
	if err != nil || got != e {
		t.Fatalf("FinishTask = %v, %v", got, err)
	}
	if m.Idle(0).Len() != 1 || !e.InIdle || c.HousekeepingSteps != 5 {
		t.Fatalf("finished region: idle list %d, housekeeping %d", m.Idle(0).Len(), c.HousekeepingSteps)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEvictAndBlank(t *testing.T) {
	m, c := rig(t, []int64{3000}, []int64{500, 700}, true)
	n := m.Nodes()[0]
	e1, _ := m.Configure(n, m.Configs()[0])
	_, _ = m.Configure(n, m.Configs()[1])
	if err := m.EvictIdle(n, []*model.Entry{e1}); err != nil {
		t.Fatal(err)
	}
	if m.Idle(0).Len() != 0 || n.AvailableArea != 3000-700 || c.HousekeepingSteps != 3 {
		t.Fatalf("eviction wrong: avail=%d housekeeping=%d", n.AvailableArea, c.HousekeepingSteps)
	}
	if err := m.BlankNode(n); err != nil {
		t.Fatal(err)
	}
	if !n.Blank() || m.Idle(1).Len() != 0 || c.HousekeepingSteps != 4 {
		t.Fatalf("BlankNode left residue or charged %d", c.HousekeepingSteps)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestBestBlankNode(t *testing.T) {
	m, _ := rig(t, []int64{4000, 1200, 2500}, []int64{1000}, true)
	need := func(a int64) *model.Config { return &model.Config{No: 900, ReqArea: a} }
	// All blank: min sufficient TotalArea for 1000 is node 1 (1200).
	if n := m.BestBlankNode(need(1000)); n == nil || n.No != 1 {
		t.Fatalf("BestBlankNode = %v", n)
	}
	// Requirement above all nodes.
	if n := m.BestBlankNode(need(5000)); n != nil {
		t.Fatalf("impossible blank fit returned %v", n)
	}
	// Configured nodes are not blank.
	_, _ = m.Configure(m.Nodes()[1], m.Configs()[0])
	if n := m.BestBlankNode(need(1000)); n == nil || n.No != 2 {
		t.Fatalf("BestBlankNode after configure = %v", n)
	}
	// Capability filter: nothing offers "dsp".
	capped := &model.Config{No: 901, ReqArea: 1000, RequiredCaps: []string{"dsp"}}
	if n := m.BestBlankNode(capped); n != nil {
		t.Fatalf("caps filter ignored: %v", n)
	}
	m.Nodes()[2].Caps = []string{"dsp", "bram"}
	if n := m.BestBlankNode(capped); n == nil || n.No != 2 {
		t.Fatalf("caps-compatible node not found: %v", n)
	}
}

func TestBestPartiallyBlankNode(t *testing.T) {
	m, _ := rig(t, []int64{4000, 3000}, []int64{1000, 500}, true)
	need := func(a int64) *model.Config { return &model.Config{No: 900, ReqArea: a} }
	// Blank nodes never qualify.
	if n := m.BestPartiallyBlankNode(need(500)); n != nil {
		t.Fatalf("blank node qualified as partially blank: %v", n)
	}
	_, _ = m.Configure(m.Nodes()[0], m.Configs()[0]) // avail 3000
	_, _ = m.Configure(m.Nodes()[1], m.Configs()[0]) // avail 2000
	if n := m.BestPartiallyBlankNode(need(500)); n == nil || n.No != 1 {
		t.Fatalf("BestPartiallyBlankNode = %v", n)
	}
	if n := m.BestPartiallyBlankNode(need(2500)); n == nil || n.No != 0 {
		t.Fatalf("BestPartiallyBlankNode(2500) = %v", n)
	}
	if n := m.BestPartiallyBlankNode(need(3500)); n != nil {
		t.Fatalf("oversized partial fit returned %v", n)
	}
	// Capability filter applies to partial fits too.
	capped := &model.Config{No: 901, ReqArea: 500, RequiredCaps: []string{"serdes"}}
	if n := m.BestPartiallyBlankNode(capped); n != nil {
		t.Fatalf("caps filter ignored: %v", n)
	}
}

func TestFindAnyIdleNodeAlg1(t *testing.T) {
	m, _ := rig(t, []int64{2000, 2000}, []int64{600, 700, 900}, true)
	n0, n1 := m.Nodes()[0], m.Nodes()[1]
	// n0: C0 idle (600) + C1 busy (700), avail 700.
	e0, _ := m.Configure(n0, m.Configs()[0])
	e1, _ := m.Configure(n0, m.Configs()[1])
	_ = m.StartTask(e1, model.NewTask(1, 700, 1, 100, 0))
	_ = e0
	// n1: C2 idle (900), avail 1100.
	_, _ = m.Configure(n1, m.Configs()[2])

	need := func(a int64) *model.Config { return &model.Config{No: 900, ReqArea: a} }
	// Need 1200: n0 reclaimable = 700 avail + 600 idle = 1300 >= 1200.
	node, victims := m.FindAnyIdleNode(need(1200))
	if node != n0 || len(victims) != 1 || victims[0] != e0 {
		t.Fatalf("FindAnyIdleNode(1200) = %v, %v", node, victims)
	}
	// Need 1400: n0 can't (1300); n1 reclaimable = 1100+900 = 2000.
	node, victims = m.FindAnyIdleNode(need(1400))
	if node != n1 || len(victims) != 1 {
		t.Fatalf("FindAnyIdleNode(1400) = %v, %v", node, victims)
	}
	// Need more than anything reclaimable.
	node, victims = m.FindAnyIdleNode(need(2500))
	if node != nil || victims != nil {
		t.Fatalf("FindAnyIdleNode(2500) = %v, %v", node, victims)
	}
	// Capability filter skips otherwise reclaimable nodes.
	capped := &model.Config{No: 901, ReqArea: 1200, RequiredCaps: []string{"bram"}}
	if node, _ := m.FindAnyIdleNode(capped); node != nil {
		t.Fatalf("caps filter ignored: %v", node)
	}
}

func TestAnyBusyNodeCouldFit(t *testing.T) {
	m, _ := rig(t, []int64{2000, 4000}, []int64{500}, true)
	need := func(a int64) *model.Config { return &model.Config{No: 900, ReqArea: a} }
	if m.AnyBusyNodeCouldFit(need(100)) {
		t.Fatal("no busy nodes yet, but fit reported")
	}
	e, _ := m.Configure(m.Nodes()[0], m.Configs()[0])
	_ = m.StartTask(e, model.NewTask(1, 500, 0, 100, 0))
	if !m.AnyBusyNodeCouldFit(need(1500)) {
		t.Fatal("busy node with 2000 total rejected for 1500")
	}
	if m.AnyBusyNodeCouldFit(need(2500)) {
		t.Fatal("busy node with 2000 total accepted for 2500")
	}
	capped := &model.Config{No: 901, ReqArea: 100, RequiredCaps: []string{"dsp"}}
	if m.AnyBusyNodeCouldFit(capped) {
		t.Fatal("caps filter ignored for busy fit")
	}
}

func TestUnknownConfigPanics(t *testing.T) {
	m, _ := rig(t, nil, []int64{500}, true)
	defer func() {
		if recover() == nil {
			t.Fatal("Idle(unknown) did not panic")
		}
	}()
	m.Idle(42)
}

func TestSearchSteppingAccumulates(t *testing.T) {
	m, c := rig(t, []int64{1000, 1000, 1000}, []int64{500}, true)
	before := c.SchedulerSearch
	m.BestBlankNode(&model.Config{No: 900, ReqArea: 500}) // scans 3 nodes
	if c.SchedulerSearch-before != 3 {
		t.Errorf("BestBlankNode charged %d steps, want 3", c.SchedulerSearch-before)
	}
	beforeH := c.HousekeepingSteps
	e, _ := m.Configure(m.Nodes()[0], m.Configs()[0])
	if c.HousekeepingSteps == beforeH {
		t.Error("Configure charged no housekeeping")
	}
	_ = m.StartTask(e, model.NewTask(1, 500, 0, 100, 0))
	if c.HousekeepingSteps <= beforeH+1 {
		t.Error("StartTask charged no housekeeping")
	}
}

func TestInvariantCatchesUnlistedEntry(t *testing.T) {
	m, _ := rig(t, []int64{2000}, []int64{500}, true)
	n := m.Nodes()[0]
	// Bypass the manager: raw SendBitstream leaves the entry unlisted.
	if _, err := n.SendBitstream(m.Configs()[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err == nil {
		t.Fatal("unlisted entry not detected")
	}
}

// TestInvariantCatchesStaleBlock corrupts each block summary the
// placement scans trust: a bound below a member's key, which would make
// a scan skip a node that fits, and a wrong entry count, which would
// mis-charge Algorithm 1.
func TestInvariantCatchesStaleBlock(t *testing.T) {
	m, _ := rig(t, []int64{2000, 3000}, []int64{500}, true)
	if _, err := m.Configure(m.Nodes()[1], m.Configs()[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	blk := &m.soa.blocks[0]
	for k := 0; k < soaKeys; k++ {
		saved := blk.bound[k]
		blk.bound[k] = -1
		if err := m.CheckInvariants(); err == nil {
			t.Errorf("bound %d below its members' keys not detected", k)
		}
		blk.bound[k] = saved
	}
	blk.ents++
	if err := m.CheckInvariants(); err == nil {
		t.Error("wrong block entry count not detected")
	}
}

// TestInvariantCatchesStaleBlankIndex corrupts the blank index
// BestBlankNode trusts: a flipped blank bit, which would return a
// configured node or hide a blank one; two swapped order entries,
// which would break the area order the binary search needs; and a
// wrong blank count, which would end a search early.
func TestInvariantCatchesStaleBlankIndex(t *testing.T) {
	m, _ := rig(t, []int64{2000, 3000, 1000, 2000}, []int64{500}, true)
	if _, err := m.Configure(m.Nodes()[1], m.Configs()[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if n := m.BestBlankNode(m.Configs()[0]); n == nil || n.No != 2 { // builds the index
		t.Fatalf("BestBlankNode = %v, want node 2", n)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	s := m.soa
	for i := range s.order {
		s.blank[i>>6] ^= 1 << (i & 63)
		if err := m.CheckInvariants(); err == nil {
			t.Errorf("flipped blank bit %d not detected", i)
		}
		s.blank[i>>6] ^= 1 << (i & 63)
	}
	s.order[0], s.order[3] = s.order[3], s.order[0]
	if err := m.CheckInvariants(); err == nil {
		t.Error("swapped order entries not detected")
	}
	s.order[0], s.order[3] = s.order[3], s.order[0]
	s.census.Blank--
	if err := m.CheckInvariants(); err == nil {
		t.Error("wrong blank count not detected")
	}
	s.census.Blank++
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("restored index: %v", err)
	}
}

// TestInvariantCatchesStaleCensus reads the census of a fabric with a
// blank, an idle, a busy and a down node, then corrupts each census
// field in turn: CheckInvariants must recount the census from the
// nodes and catch every one.
func TestInvariantCatchesStaleCensus(t *testing.T) {
	m, _ := rig(t, []int64{2000, 3000, 1000, 4000}, []int64{500, 700}, true)
	nodes, cfgs := m.Nodes(), m.Configs()
	if _, err := m.Configure(nodes[1], cfgs[0]); err != nil {
		t.Fatal(err)
	}
	e, err := m.Configure(nodes[2], cfgs[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := m.StartTask(e, &model.Task{No: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CrashNode(nodes[3]); err != nil {
		t.Fatal(err)
	}
	want := Census{Nodes: 4, TotalArea: 10000, Blank: 1, Busy: 1, Down: 1,
		AvailableArea: 10000 - 500 - 700, WastedArea: 2500 + 300}
	if got := m.Census(); got != want || got.Idle() != 1 {
		t.Fatalf("census %+v (idle %d), want %+v (idle 1)", got, got.Idle(), want)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	c := &m.soa.census
	for _, f := range []struct {
		name string
		bump func(d int)
	}{
		{"Nodes", func(d int) { c.Nodes += d }},
		{"TotalArea", func(d int) { c.TotalArea += int64(d) }},
		{"Blank", func(d int) { c.Blank += d }},
		{"Busy", func(d int) { c.Busy += d }},
		{"Down", func(d int) { c.Down += d }},
		{"AvailableArea", func(d int) { c.AvailableArea += int64(d) }},
		{"WastedArea", func(d int) { c.WastedArea += int64(d) }},
	} {
		f.bump(1)
		if err := m.CheckInvariants(); err == nil {
			t.Errorf("stale census %s not detected", f.name)
		}
		f.bump(-1)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatalf("restored census: %v", err)
	}
}

// TestCensusEmptySystem reads the census of a fresh fabric in both
// reconfiguration modes: every node blank, no area configured and
// none wasted.
func TestCensusEmptySystem(t *testing.T) {
	for _, partial := range []bool{false, true} {
		m, _ := rig(t, []int64{3000, 2000, 4000}, []int64{1000, 500}, partial)
		want := Census{Nodes: 3, TotalArea: 9000, Blank: 3, AvailableArea: 9000}
		if got := m.Census(); got != want || got.Idle() != 0 {
			t.Fatalf("partial=%v: census %+v (idle %d), want %+v (idle 0)", partial, got, got.Idle(), want)
		}
	}
}

// TestCensusPopulatedSystem reads the census of a fabric with a busy
// node that also holds an idle region, an idle node and a blank node.
// A node running any region counts as busy, and Eq. 6 wastes the free
// area of both configured nodes.
func TestCensusPopulatedSystem(t *testing.T) {
	m, _ := rig(t, []int64{3000, 2000, 4000}, []int64{1000, 500}, true)
	nodes, cfgs := m.Nodes(), m.Configs()
	e, err := m.Configure(nodes[0], cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Configure(nodes[0], cfgs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Configure(nodes[1], cfgs[1]); err != nil {
		t.Fatal(err)
	}
	if err := m.StartTask(e, model.NewTask(1, 1000, 0, 100, 0)); err != nil {
		t.Fatal(err)
	}
	// Eq. 6: (3000-1500) + (2000-500) wasted; 2000 of 9000 configured.
	want := Census{Nodes: 3, TotalArea: 9000, Blank: 1, Busy: 1, AvailableArea: 7000, WastedArea: 3000}
	if got := m.Census(); got != want || got.Idle() != 1 {
		t.Fatalf("census %+v (idle %d), want %+v (idle 1)", got, got.Idle(), want)
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// censusStep is one manager transition and the census it must leave,
// less the population fields, which no transition changes.
type censusStep struct {
	name string
	do   func() error
	want Census
}

// runCensusSteps applies each step in turn and holds the kept census
// to the step's expected value and to a recount (CheckInvariants).
func runCensusSteps(t *testing.T, m *Manager, steps []censusStep) {
	t.Helper()
	pop := m.Census()
	for _, s := range steps {
		if err := s.do(); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
		s.want.Nodes, s.want.TotalArea = pop.Nodes, pop.TotalArea
		if got := m.Census(); got != s.want {
			t.Fatalf("after %s: census %+v, want %+v", s.name, got, s.want)
		}
		if err := m.CheckInvariants(); err != nil {
			t.Fatalf("after %s: %v", s.name, err)
		}
	}
}

// TestCensusFollowsTaskLifecycle walks a node through configuration,
// two tasks' starts and finishes, an eviction and blanking. The node
// stays busy until its last region stops running, and leaves the
// wasted area only when it holds no configuration.
func TestCensusFollowsTaskLifecycle(t *testing.T) {
	m, _ := rig(t, []int64{3000, 2000}, []int64{1000, 500}, true)
	n, cfgs := m.Nodes()[0], m.Configs()
	t1, t2 := &model.Task{No: 1}, &model.Task{No: 2}
	var e0, e1 *model.Entry
	runCensusSteps(t, m, []censusStep{
		{"configure C0", func() (err error) { e0, err = m.Configure(n, cfgs[0]); return err },
			Census{Blank: 1, AvailableArea: 4000, WastedArea: 2000}},
		{"configure C1", func() (err error) { e1, err = m.Configure(n, cfgs[1]); return err },
			Census{Blank: 1, AvailableArea: 3500, WastedArea: 1500}},
		{"start on C0", func() error { return m.StartTask(e0, t1) },
			Census{Blank: 1, Busy: 1, AvailableArea: 3500, WastedArea: 1500}},
		{"start on C1", func() error { return m.StartTask(e1, t2) },
			Census{Blank: 1, Busy: 1, AvailableArea: 3500, WastedArea: 1500}},
		{"finish on C0", func() error { _, err := m.FinishTask(n, t1); return err },
			Census{Blank: 1, Busy: 1, AvailableArea: 3500, WastedArea: 1500}},
		{"finish on C1", func() error { _, err := m.FinishTask(n, t2); return err },
			Census{Blank: 1, AvailableArea: 3500, WastedArea: 1500}},
		{"evict C0", func() error { return m.EvictIdle(n, []*model.Entry{e0}) },
			Census{Blank: 1, AvailableArea: 4500, WastedArea: 2500}},
		{"blank", func() error { return m.BlankNode(n) },
			Census{Blank: 2, AvailableArea: 5000}},
	})
}

// TestCensusFollowsCrashAndRecover crashes a busy, a blank and an idle
// node, then recovers them. A crash frees the node's whole area and
// takes it out of the blank, busy and wasted counts; a recovery
// returns it blank.
func TestCensusFollowsCrashAndRecover(t *testing.T) {
	m, _ := rig(t, []int64{3000, 2000, 4000}, []int64{1000, 500}, true)
	nodes, cfgs := m.Nodes(), m.Configs()
	e, err := m.Configure(nodes[0], cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Configure(nodes[0], cfgs[1]); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Configure(nodes[1], cfgs[1]); err != nil {
		t.Fatal(err)
	}
	task := &model.Task{No: 1}
	if err := m.StartTask(e, task); err != nil {
		t.Fatal(err)
	}
	crash := func(no int) func() error {
		return func() error {
			_, err := m.CrashNode(nodes[no])
			return err
		}
	}
	runCensusSteps(t, m, []censusStep{
		{"crash busy node 0", func() error {
			displaced, err := m.CrashNode(nodes[0])
			if err == nil && (len(displaced) != 1 || displaced[0] != task) {
				err = fmt.Errorf("displaced %v, want the running task", displaced)
			}
			return err
		}, Census{Blank: 1, Down: 1, AvailableArea: 8500, WastedArea: 1500}},
		{"crash blank node 2", crash(2),
			Census{Down: 2, AvailableArea: 8500, WastedArea: 1500}},
		{"crash idle node 1", crash(1),
			Census{Down: 3, AvailableArea: 9000}},
		{"recover node 0", func() error { return m.RecoverNode(nodes[0]) },
			Census{Blank: 1, Down: 2, AvailableArea: 9000}},
		{"recover node 1", func() error { return m.RecoverNode(nodes[1]) },
			Census{Blank: 2, Down: 1, AvailableArea: 9000}},
		{"recover node 2", func() error { return m.RecoverNode(nodes[2]) },
			Census{Blank: 3, AvailableArea: 9000}},
	})
}

// TestSortByKey checks the radix sort both indexes are built with
// against a stable comparison sort, on keys with ties, negative keys,
// keys above 2^32 and the int64 extremes.
func TestSortByKey(t *testing.T) {
	r := rng.New(9)
	key := []int64{math.MaxInt64, math.MinInt64, 0, -1, 1}
	for len(key) < 300 {
		switch r.Intn(3) {
		case 0:
			key = append(key, int64(r.IntRange(0, 4))) // ties
		case 1:
			key = append(key, -int64(r.IntRange(0, 1<<20)))
		default:
			key = append(key, int64(r.IntRange(0, 1<<20))<<24)
		}
	}
	for _, n := range []int{0, 1, 2, 5, len(key)} {
		idx, tmp := make([]int32, n), make([]int32, n)
		for i := range idx {
			idx[i] = int32(n - 1 - i) // equal keys must keep this order
		}
		want := slices.Clone(idx)
		slices.SortStableFunc(want, func(a, b int32) int { return cmp.Compare(key[a], key[b]) })
		sortByKey(idx, tmp, key)
		if !slices.Equal(idx, want) {
			t.Fatalf("n=%d: sortByKey gave %v, want %v", n, idx, want)
		}
	}
}

// TestRestoreRejectsRepeatedListEntry: an idle list that names one
// region twice is corrupt, and restoring it fails cleanly instead of
// double-inserting the region.
func TestRestoreRejectsRepeatedListEntry(t *testing.T) {
	areas, cfgs := []int64{2000, 2000}, []int64{500}
	m, _ := rig(t, areas, cfgs, true)
	for _, n := range m.Nodes() {
		if _, err := m.Configure(n, m.Configs()[0]); err != nil {
			t.Fatal(err)
		}
	}
	var w snapshot.Writer
	m.EncodeState(&w)
	data := w.Bytes()
	// The payload ends with C0's idle list, two (node, slot) pairs of
	// one-byte varints; make both name node 0, slot 0.
	copy(data[len(data)-4:], []byte{0, 0, 0, 0})
	fresh, _ := rig(t, areas, cfgs, true)
	const version = 2 // the current snapshot format: idle lists only
	err := fresh.RestoreState(snapshot.NewReader(data), version, func(int) *model.Task { return nil })
	if !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("repeated list entry gave %v, want ErrCorrupt", err)
	}
}
