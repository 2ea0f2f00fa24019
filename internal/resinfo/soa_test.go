package resinfo_test

import (
	"testing"

	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
	"dreamsim/internal/resinfo"
	"dreamsim/internal/snapshot"
)

// TestScanBestHandlesPostBuildCapMutation: the scans read a node's
// capabilities at query time, so a capability no node or configuration
// carried when the manager was built (here added by a direct
// post-construction Caps mutation, as resinfo_test does) is found as
// soon as a node offers it.
func TestScanBestHandlesPostBuildCapMutation(t *testing.T) {
	nodes, cfgs := population(5, 40, 8, []string{"bram"})
	m, err := resinfo.New(nodes, cfgs, &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	probe := &model.Config{No: 99, ReqArea: 100, ConfigTime: 5, RequiredCaps: []string{"ghost"}}
	if n := m.BestBlankNode(probe); n != nil {
		t.Fatalf("no node carries 'ghost' yet BestBlankNode returned %v", n)
	}
	nodes[7].Caps = append(nodes[7].Caps, "ghost")
	if n := m.BestBlankNode(probe); n == nil || n.No != 7 {
		t.Fatalf("BestBlankNode missed the post-build capability: got %v, want node 7", n)
	}
}

// TestSoASnapshotRoundTrip pins the checkpoint contract for the SoA
// block: encode a mid-run manager, restore into a fresh population,
// and require the restored SoA arrays and query answers to be
// equivalent (RestoreState rebuilds the block through reindex, so
// CheckInvariants cross-validates it against node state).
func TestSoASnapshotRoundTrip(t *testing.T) {
	nodes, cfgs := population(21, 64, 10, []string{"bram", "dsp"})
	m, err := resinfo.New(nodes, cfgs, &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	taskByNo := map[int]*model.Task{}
	for i := 0; i < 30; i++ {
		cfg := cfgs[i%len(cfgs)]
		n := m.BestBlankNode(cfg)
		if n == nil {
			continue
		}
		e, err := m.Configure(n, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			task := &model.Task{No: i, AssignedConfig: cfg.No}
			if err := m.StartTask(e, task); err != nil {
				t.Fatal(err)
			}
			taskByNo[i] = task
		}
	}

	var w snapshot.Writer
	m.EncodeState(&w)

	freshN, freshC := population(21, 64, 10, []string{"bram", "dsp"})
	m2, err := resinfo.New(freshN, freshC, &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	r := snapshot.NewReader(w.Bytes())
	const version = 2 // RestoreState reads versions 2 and 3 (the current format) alike: idle lists only
	if err := m2.RestoreState(r, version, func(no int) *model.Task {
		if tk := taskByNo[no]; tk != nil {
			cp := *tk
			return &cp
		}
		return &model.Task{No: no, AssignedConfig: -1}
	}); err != nil {
		t.Fatal(err)
	}
	if err := m2.CheckInvariants(); err != nil {
		t.Fatalf("restored manager: %v", err)
	}
	for _, cfg := range cfgs {
		a := m.BestBlankNode(cfg)
		b := m2.BestBlankNode(cfg)
		if (a == nil) != (b == nil) || (a != nil && a.No != b.No) {
			t.Fatalf("C%d: BestBlankNode diverged after restore: %v vs %v", cfg.No, a, b)
		}
		ap := m.BestPartiallyBlankNode(cfg)
		bp := m2.BestPartiallyBlankNode(cfg)
		if (ap == nil) != (bp == nil) || (ap != nil && ap.No != bp.No) {
			t.Fatalf("C%d: BestPartiallyBlankNode diverged after restore: %v vs %v", cfg.No, ap, bp)
		}
		if m.AnyBusyNodeCouldFit(cfg) != m2.AnyBusyNodeCouldFit(cfg) {
			t.Fatalf("C%d: AnyBusyNodeCouldFit diverged after restore", cfg.No)
		}
	}
}

// BenchmarkScan5000 is the placement-scan microbench: the full
// query+transition cycle over a 5000-node population on the blocked
// SoA scan.
func BenchmarkScan5000(b *testing.B) {
	sb := newSearchBench(b, 5000)
	for i := 0; i < 32; i++ {
		sb.cycle(b, i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sb.cycle(b, i)
	}
}

// BenchmarkNew5000 measures building a manager, the SoA scan block
// included, over a 5000-node population with Table II's 50
// configurations: the per-run setup cost StartRun and RestoreSnapshot
// pay.
func BenchmarkNew5000(b *testing.B) {
	nodes, cfgs := population(1234, 5000, 50, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := resinfo.New(nodes, cfgs, &metrics.Counters{}); err != nil {
			b.Fatal(err)
		}
	}
}
