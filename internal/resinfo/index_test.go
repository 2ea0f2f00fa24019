package resinfo_test

// Equivalence property test for the indexed search fast path: a
// linear-mode and a fast-mode Manager are driven through the same
// randomized transition sequence over identical populations; after
// every step each search query must return the same resource and
// both counter sets must be bit-identical.

import (
	"fmt"
	"testing"

	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
	"dreamsim/internal/resinfo"
	"dreamsim/internal/rng"
)

// population synthesises nodes and configs; called twice per scenario
// so each manager owns an independent but identical copy.
func population(seed uint64, nodes, configs int, caps []string) ([]*model.Node, []*model.Config) {
	r := rng.New(seed)
	ns := make([]*model.Node, nodes)
	for i := range ns {
		partial := r.Bool(0.5)
		ns[i] = model.NewNode(i, int64(r.IntRange(1000, 4000)), partial)
		for _, c := range caps {
			if r.Bool(0.6) {
				ns[i].Caps = append(ns[i].Caps, c)
			}
		}
	}
	cs := make([]*model.Config, configs)
	for i := range cs {
		cs[i] = &model.Config{
			No:         i,
			ReqArea:    int64(r.IntRange(200, 2000)),
			Ptype:      model.PTypeSoftCore,
			ConfigTime: int64(r.IntRange(10, 20)),
		}
		for _, c := range caps {
			if r.Bool(0.2) {
				cs[i].RequiredCaps = append(cs[i].RequiredCaps, c)
			}
		}
	}
	return ns, cs
}

// duo is the linear/fast manager pair under mirrored transitions.
type duo struct {
	t           *testing.T
	lin, fast   *resinfo.Manager
	linN, fastN []*model.Node
	linC, fastC []*model.Config
}

func newDuo(t *testing.T, seed uint64, nodes, configs int, caps []string) *duo {
	t.Helper()
	linN, linC := population(seed, nodes, configs, caps)
	fastN, fastC := population(seed, nodes, configs, caps)
	lin, err := resinfo.New(linN, linC, &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := resinfo.New(fastN, fastC, &metrics.Counters{}, resinfo.WithFastSearch())
	if err != nil {
		t.Fatal(err)
	}
	if !fast.FastSearch() {
		t.Fatal("fast manager did not build its index")
	}
	return &duo{t: t, lin: lin, fast: fast, linN: linN, fastN: fastN, linC: linC, fastC: fastC}
}

// checkCounters asserts both managers charged identical steps.
func (d *duo) checkCounters() {
	d.t.Helper()
	lc, fc := d.lin.Counters(), d.fast.Counters()
	if lc.SchedulerSearch != fc.SchedulerSearch {
		d.t.Fatalf("SchedulerSearch diverged: linear %d, fast %d", lc.SchedulerSearch, fc.SchedulerSearch)
	}
	if lc.HousekeepingSteps != fc.HousekeepingSteps {
		d.t.Fatalf("HousekeepingSteps diverged: linear %d, fast %d", lc.HousekeepingSteps, fc.HousekeepingSteps)
	}
	if lc.Reconfigurations != fc.Reconfigurations || lc.ConfigurationTime != fc.ConfigurationTime {
		d.t.Fatalf("reconfiguration counters diverged")
	}
}

// queryAll runs every accelerated query on both managers and compares
// results; cfg is the probe configuration (same No on both sides).
func (d *duo) queryAll(cfgNo int, area int64) {
	d.t.Helper()
	lb, fb := d.lin.BestBlankNode(d.linC[cfgNo]), d.fast.BestBlankNode(d.fastC[cfgNo])
	if (lb == nil) != (fb == nil) || (lb != nil && lb.No != fb.No) {
		d.t.Fatalf("BestBlankNode(C%d) diverged: linear %v, fast %v", cfgNo, lb, fb)
	}
	lp, fp := d.lin.BestPartiallyBlankNode(d.linC[cfgNo]), d.fast.BestPartiallyBlankNode(d.fastC[cfgNo])
	if (lp == nil) != (fp == nil) || (lp != nil && lp.No != fp.No) {
		d.t.Fatalf("BestPartiallyBlankNode(C%d) diverged: linear %v, fast %v", cfgNo, lp, fp)
	}
	if lf, ff := d.lin.AnyBusyNodeCouldFit(d.linC[cfgNo]), d.fast.AnyBusyNodeCouldFit(d.fastC[cfgNo]); lf != ff {
		d.t.Fatalf("AnyBusyNodeCouldFit(C%d) diverged: linear %v, fast %v", cfgNo, lf, ff)
	}
	lc, fc := d.lin.FindClosestConfig(area), d.fast.FindClosestConfig(area)
	if (lc == nil) != (fc == nil) || (lc != nil && lc.No != fc.No) {
		d.t.Fatalf("FindClosestConfig(%d) diverged: linear %v, fast %v", area, lc, fc)
	}
	lpc, fpc := d.lin.FindPreferredConfig(cfgNo), d.fast.FindPreferredConfig(cfgNo)
	if (lpc == nil) != (fpc == nil) || (lpc != nil && lpc.No != fpc.No) {
		d.t.Fatalf("FindPreferredConfig(%d) diverged", cfgNo)
	}
	// Missing config number: miss charge must match too.
	d.lin.FindPreferredConfig(-7)
	d.fast.FindPreferredConfig(-7)
	d.checkCounters()
}

func TestFastSearchEquivalenceProperty(t *testing.T) {
	for _, tc := range []struct {
		name string
		caps []string
	}{
		{"homogeneous", nil},
		{"capabilities", []string{"bram", "dsp", "serdes"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const nodes, configs, steps = 60, 25, 4000
			d := newDuo(t, 42, nodes, configs, tc.caps)
			r := rng.New(99)
			var nextTask int
			running := map[int][]*model.Task{} // node pos -> tasks (both sides share structure)
			fastTasks := map[*model.Task]*model.Task{}

			for step := 0; step < steps; step++ {
				op := r.Intn(6)
				ni := r.Intn(nodes)
				ln, fn := d.linN[ni], d.fastN[ni]
				switch op {
				case 0: // Configure a random config that fits.
					ci := r.Intn(configs)
					lc, fc := d.linC[ci], d.fastC[ci]
					if !ln.PartialMode && len(ln.Entries) > 0 {
						continue
					}
					if lc.ReqArea > ln.AvailableArea || !ln.HasCaps(lc.RequiredCaps) {
						continue
					}
					if _, err := d.lin.Configure(ln, lc); err != nil {
						t.Fatal(err)
					}
					if _, err := d.fast.Configure(fn, fc); err != nil {
						t.Fatal(err)
					}
				case 1: // Start a task on a random idle entry.
					idle := ln.IdleEntries()
					if len(idle) == 0 || (!ln.PartialMode && ln.RunningTasks() > 0) {
						continue
					}
					ei := r.Intn(len(idle))
					le := idle[ei]
					fe := fn.IdleEntries()[ei]
					lt := &model.Task{No: nextTask, AssignedConfig: -1}
					ft := &model.Task{No: nextTask, AssignedConfig: -1}
					nextTask++
					if err := d.lin.StartTask(le, lt); err != nil {
						t.Fatal(err)
					}
					if err := d.fast.StartTask(fe, ft); err != nil {
						t.Fatal(err)
					}
					running[ni] = append(running[ni], lt)
					fastTasks[lt] = ft
				case 2: // Finish a random running task.
					if len(running[ni]) == 0 {
						continue
					}
					ti := r.Intn(len(running[ni]))
					lt := running[ni][ti]
					running[ni] = append(running[ni][:ti], running[ni][ti+1:]...)
					if _, err := d.lin.FinishTask(ln, lt); err != nil {
						t.Fatal(err)
					}
					if _, err := d.fast.FinishTask(fn, fastTasks[lt]); err != nil {
						t.Fatal(err)
					}
					delete(fastTasks, lt)
				case 3: // Evict a random subset of idle entries.
					idle := ln.IdleEntries()
					if len(idle) == 0 {
						continue
					}
					k := r.IntRange(1, len(idle))
					fIdle := fn.IdleEntries()
					if err := d.lin.EvictIdle(ln, idle[:k]); err != nil {
						t.Fatal(err)
					}
					if err := d.fast.EvictIdle(fn, fIdle[:k]); err != nil {
						t.Fatal(err)
					}
				case 4: // Blank a fully idle node.
					if len(ln.Entries) == 0 || ln.RunningTasks() > 0 {
						continue
					}
					if err := d.lin.BlankNode(ln); err != nil {
						t.Fatal(err)
					}
					if err := d.fast.BlankNode(fn); err != nil {
						t.Fatal(err)
					}
				case 5: // Pure query step.
					d.queryAll(r.Intn(configs), int64(r.IntRange(1, 2500)))
				}
				if step%37 == 0 {
					d.queryAll(r.Intn(configs), int64(r.IntRange(1, 2500)))
					if err := d.fast.CheckInvariants(); err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
				}
			}
			d.queryAll(0, 1)
			if err := d.fast.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if err := d.lin.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestFastSearchFallsBackOnHugeCapSpace: >64 distinct capability
// names cannot be mask-encoded; the manager must stay on the linear
// path rather than mis-index, and shard assembly must degrade to one
// flat shard whose scans use the per-node string test with the same
// results and metering as a mask-encodable build.
func TestFastSearchFallsBackOnHugeCapSpace(t *testing.T) {
	build := func(opts ...resinfo.Option) (*resinfo.Manager, []*model.Config) {
		var nodes []*model.Node
		for i := 0; i < 70; i++ {
			n := model.NewNode(i, 2000, true)
			n.Caps = []string{fmt.Sprintf("cap-%d", i)}
			nodes = append(nodes, n)
		}
		cfgs := []*model.Config{
			{No: 0, ReqArea: 500, ConfigTime: 10},
			{No: 1, ReqArea: 500, ConfigTime: 10, RequiredCaps: []string{"cap-42"}},
		}
		m, err := resinfo.New(nodes, cfgs, &metrics.Counters{}, opts...)
		if err != nil {
			t.Fatal(err)
		}
		return m, cfgs
	}

	m, cfgs := build(resinfo.WithFastSearch())
	if m.FastSearch() {
		t.Fatal("index built over an un-encodable capability space")
	}
	if m.ShardCount() != 1 {
		t.Fatalf("un-encodable capability space must collapse to 1 shard, got %d", m.ShardCount())
	}
	if n := m.BestBlankNode(cfgs[0]); n == nil {
		t.Fatal("linear fallback found no node")
	}
	if n := m.BestBlankNode(cfgs[1]); n == nil || n.No != 42 {
		t.Fatalf("flat-shard HasCaps scan missed cap-42: got %v", n)
	}

	// The fallen-back FastSearch manager must answer and meter exactly
	// like a plain linear one in the degraded regime.
	mp, pcfgs := build()
	if mp.ShardCount() != 1 {
		t.Fatalf("plain degraded manager has %d shards, want 1", mp.ShardCount())
	}
	seqBefore := m.Counters().SchedulerSearch
	for i := range cfgs {
		a, b := m.BestBlankNode(cfgs[i]), mp.BestBlankNode(pcfgs[i])
		if (a == nil) != (b == nil) || (a != nil && a.No != b.No) {
			t.Fatalf("C%d: degraded scan diverged between fast-search fallback (%v) and plain (%v)", i, a, b)
		}
	}
	if delta := m.Counters().SchedulerSearch - seqBefore; delta != mp.Counters().SchedulerSearch {
		t.Fatalf("degraded-scan metering diverged: fast-search fallback %d, plain %d",
			delta, mp.Counters().SchedulerSearch)
	}
}
