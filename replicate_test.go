package dreamsim_test

import (
	"testing"

	"dreamsim"
)

func TestSeeds(t *testing.T) {
	s := dreamsim.Seeds(10, 5)
	if len(s) != 5 || s[0] != 10 {
		t.Fatalf("seeds: %v", s)
	}
	seen := map[uint64]bool{}
	for _, v := range s {
		if seen[v] {
			t.Fatal("duplicate seeds")
		}
		seen[v] = true
	}
}

func TestRunReplicated(t *testing.T) {
	p := dreamsim.DefaultParams()
	p.Nodes = 40
	p.Tasks = 400
	stats, err := dreamsim.RunReplicated(p, dreamsim.Seeds(1, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(stats) != 10 { // one row per Table I metric
		t.Fatalf("got %d metric rows", len(stats))
	}
	byName := map[string]dreamsim.MetricStats{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	wait, ok := byName["avg_waiting_time_per_task"]
	if !ok {
		t.Fatal("waiting time metric missing")
	}
	if wait.Mean <= 0 || wait.Min > wait.Mean || wait.Max < wait.Mean || wait.StdDev < 0 || wait.CI95 < 0 {
		t.Fatalf("implausible stats: %+v", wait)
	}
	// Different seeds must actually vary the metric.
	if wait.Min == wait.Max {
		t.Fatal("replication produced identical runs")
	}
	if _, err := dreamsim.RunReplicated(p, nil); err == nil {
		t.Fatal("empty seed list accepted")
	}
}

// TestReplicatedOrderingRobust verifies the paper's headline ordering
// holds not just for one seed but across a seed ensemble, with the
// full-mode lower bound above the partial-mode upper bound.
func TestReplicatedOrderingRobust(t *testing.T) {
	p := dreamsim.DefaultParams()
	p.Nodes = 50
	p.Tasks = 800
	seeds := dreamsim.Seeds(7, 3)

	p.PartialReconfig = false
	fullStats, err := dreamsim.RunReplicated(p, seeds)
	if err != nil {
		t.Fatal(err)
	}
	p.PartialReconfig = true
	partStats, err := dreamsim.RunReplicated(p, seeds)
	if err != nil {
		t.Fatal(err)
	}
	wasteOf := func(stats []dreamsim.MetricStats) dreamsim.MetricStats {
		for _, s := range stats {
			if s.Name == "avg_wasted_area_per_task" {
				return s
			}
		}
		t.Fatal("wasted-area metric missing")
		return dreamsim.MetricStats{}
	}
	fullWaste, partWaste := wasteOf(fullStats), wasteOf(partStats)
	if !(partWaste.Max < fullWaste.Min) {
		t.Fatalf("wasted-area ordering not seed-robust: partial max %.1f vs full min %.1f",
			partWaste.Max, fullWaste.Min)
	}
}

// TestComparePairedSignificance backs the paper's headline orderings
// with paired statistics: over a seed ensemble, the wasted-area and
// waiting-time differences must be sign-consistent and their 95% CIs
// must exclude zero.
func TestComparePairedSignificance(t *testing.T) {
	p := dreamsim.DefaultParams()
	p.Nodes = 50
	p.Tasks = 800
	ms, err := dreamsim.ComparePaired(p, dreamsim.Seeds(3, 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 10 {
		t.Fatalf("got %d paired metrics", len(ms))
	}
	byName := map[string]dreamsim.PairedMetric{}
	for _, m := range ms {
		byName[m.Name] = m
	}
	for _, name := range []string{"avg_wasted_area_per_task", "avg_waiting_time_per_task"} {
		m, ok := byName[name]
		if !ok {
			t.Fatalf("%s missing", name)
		}
		if m.MeanDiff <= 0 { // full - partial must be positive
			t.Errorf("%s: mean diff %.2f not positive", name, m.MeanDiff)
		}
		if !m.Consistent {
			t.Errorf("%s: ordering not consistent across seeds", name)
		}
		if !m.Significant05 {
			t.Errorf("%s: difference not significant (diff %.2f ± %.2f)", name, m.MeanDiff, m.CI95)
		}
	}
	// Reconfig count goes the other way (partial > full).
	if rc := byName["avg_reconfig_count_per_node"]; rc.MeanDiff >= 0 {
		t.Errorf("reconfig count diff %.2f not negative", rc.MeanDiff)
	}
	// Both scenarios use every node on every seed: equal, so consistent.
	if u := byName["total_used_nodes"]; u.MeanDiff != 0 || !u.Consistent {
		t.Errorf("total_used_nodes: diff %.2f, consistent %v; want 0, true", u.MeanDiff, u.Consistent)
	}
	if _, err := dreamsim.ComparePaired(p, dreamsim.Seeds(1, 1)); err == nil {
		t.Fatal("single seed accepted")
	}
}

func TestTimelineSampling(t *testing.T) {
	p := dreamsim.DefaultParams()
	p.Nodes = 30
	p.Tasks = 400
	p.SampleEvery = 5
	res, err := dreamsim.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline samples")
	}
	last := int64(-1)
	sawBusy := false
	for _, pt := range res.Timeline {
		if pt.Time < last {
			t.Fatal("timeline not time-ordered")
		}
		last = pt.Time
		if pt.Utilization < 0 || pt.Utilization > 1 {
			t.Fatalf("utilization out of range: %v", pt.Utilization)
		}
		if pt.RunningTasks > 0 {
			sawBusy = true
		}
	}
	if !sawBusy {
		t.Fatal("timeline never saw a running task")
	}
	if res.TimelineText() == "" {
		t.Fatal("timeline text empty")
	}
	// Without sampling, no timeline.
	p.SampleEvery = 0
	res, err = dreamsim.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timeline) != 0 || res.TimelineText() != "" {
		t.Fatal("timeline recorded without opt-in")
	}
}
