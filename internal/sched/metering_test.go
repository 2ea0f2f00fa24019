package sched

// The paper's Table I and Fig. 9 report scheduler search steps, so
// every list walk a decision makes must charge SchedulerSearch exactly
// its length. These tests count the walks independently: the
// Allocation phase from the regions on the nodes (one configuration's
// idle list holds exactly its idle regions), and DecideOnNode's two
// walks over the freed node's regions. resinfo's placement queries
// have their own reference (internal/resinfo/reference_test.go).

import (
	"testing"

	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
	"dreamsim/internal/resinfo"
	"dreamsim/internal/rng"
)

// allocationWalk is the length of the Allocation phase's walk of cfg's
// idle list under placement: first-fit stops at the first region,
// every other criterion visits the whole list. It returns 0 when no
// region of cfg is idle.
func allocationWalk(m *resinfo.Manager, cfg *model.Config, placement Placement) uint64 {
	var idle uint64
	for _, n := range m.Nodes() {
		for _, e := range n.Entries {
			if e.Task == nil && e.Config == cfg {
				idle++
			}
		}
	}
	if placement == FirstFit {
		return min(idle, 1)
	}
	return idle
}

// retryWalks are the lengths of DecideOnNode's walks of node's
// regions: the allocation walk up to the first idle region of cfg,
// and, when none is idle and a partial-mode node lacks the free fabric,
// the reclaim walk up to the region whose idle area completes cfg's
// request.
func retryWalks(node *model.Node, cfg *model.Config) (alloc, reclaim uint64) {
	for _, e := range node.Entries {
		alloc++
		if e.Task == nil && e.Config == cfg {
			return alloc, 0
		}
	}
	if !node.HasCaps(cfg.RequiredCaps) || !node.PartialMode || node.AvailableArea >= cfg.ReqArea {
		return alloc, 0
	}
	accum := node.AvailableArea
	for _, e := range node.Entries {
		reclaim++
		if e.Task == nil {
			accum += e.Config.ReqArea
			if accum >= cfg.ReqArea {
				break
			}
		}
	}
	return alloc, reclaim
}

// TestSearchChargeMatchesWalks drives a mixed partial- and full-mode
// system through random arrivals, completions and retries under every
// placement criterion, with and without the load-balance tie-break.
// Each decision must charge SchedulerSearch exactly the steps of the
// walks counted above: an arrival that finds an idle region of its
// configuration charges the Allocation phase's walk and nothing else,
// and a retry charges its allocation walk plus its reclaim walk.
// Tasks arrive with their configuration resolved, so the
// configuration searches charge nothing.
func TestSearchChargeMatchesWalks(t *testing.T) {
	for _, placement := range []Placement{BestFit, FirstFit, WorstFit, RandomFit} {
		for _, lb := range []bool{false, true} {
			opts := Options{Placement: placement, LoadBalance: lb, RNG: rng.New(3)}
			t.Run(New(opts).Name(), func(t *testing.T) { checkSearchCharges(t, opts) })
		}
	}
}

func checkSearchCharges(t *testing.T, opts Options) {
	r := rng.New(11)
	var nodes []*model.Node
	for i := 0; i < 12; i++ {
		nodes = append(nodes, model.NewNode(i, r.Int64Range(1000, 4000), i%3 != 0))
	}
	var configs []*model.Config
	for i := 0; i < 5; i++ {
		configs = append(configs, &model.Config{No: i, ReqArea: r.Int64Range(200, 1200), ConfigTime: 10})
	}
	c := &metrics.Counters{}
	m, err := resinfo.New(nodes, configs, c)
	if err != nil {
		t.Fatal(err)
	}
	p := New(opts)
	charged := func(decide func() Decision) (Decision, uint64) {
		before := c.SchedulerSearch
		d := decide()
		return d, c.SchedulerSearch - before
	}
	type placed struct {
		task *model.Task
		node *model.Node
	}
	var running []placed
	place := func(tk *model.Task, d Decision) {
		if !d.Places() {
			return
		}
		e, _, err := Apply(m, tk, d)
		if err != nil {
			t.Fatal(err)
		}
		running = append(running, placed{tk, e.Node})
	}
	newTask := func(no int) (*model.Task, *model.Config) {
		cfg := configs[r.Intn(len(configs))]
		tk := task(no, cfg.No, cfg.ReqArea)
		tk.Resolved = cfg
		return tk, cfg
	}

	allocations, reclaims := 0, 0
	for i := 0; i < 4000; i++ {
		switch op := r.Intn(10); {
		case op < 5: // an arrival
			tk, cfg := newTask(i)
			walk := allocationWalk(m, cfg, opts.Placement)
			d, got := charged(func() Decision { return p.Decide(m, tk) })
			if walk > 0 {
				allocations++
				if d.Action != ActAllocate || got != walk {
					t.Fatalf("decision %d: Decide(%v) with %v idle: %s charging %d steps; the Allocation phase's walk takes %d",
						i, tk, cfg, d.Action, got, walk)
				}
			}
			place(tk, d)
		case op < 8 && len(running) > 0: // a completion, then a retry on the freed node
			k := r.Intn(len(running))
			done := running[k]
			running[k] = running[len(running)-1]
			running = running[:len(running)-1]
			if _, err := m.FinishTask(done.node, done.task); err != nil {
				t.Fatal(err)
			}
			tk, cfg := newTask(i)
			alloc, reclaim := retryWalks(done.node, cfg)
			if reclaim > 0 {
				reclaims++
			}
			d, got := charged(func() Decision { return p.DecideOnNode(m, tk, done.node) })
			if got != alloc+reclaim {
				t.Fatalf("decision %d: DecideOnNode(%v, node %d) %s charged %d steps; its allocation walk takes %d and its reclaim walk %d",
					i, tk, done.node.No, d.Action, got, alloc, reclaim)
			}
			place(tk, d)
		}
	}
	if allocations < 100 || reclaims < 50 {
		t.Fatalf("only %d allocations and %d reclaim walks were checked", allocations, reclaims)
	}
	t.Logf("%d allocations, %d reclaim walks", allocations, reclaims)
}
