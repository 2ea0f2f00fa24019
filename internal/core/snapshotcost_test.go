package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"dreamsim/internal/invariant"
	"dreamsim/internal/model"
)

// deepQueueParams is the checkpoint workload's shape: 100 partial
// nodes and 20k tasks, overloaded so the suspension queue grows by
// thousands of tasks.
func deepQueueParams() Params {
	p := smallParams(100, 20000, true)
	p.Seed = 1
	return p
}

// pauseAtDepth drives s to the first tick boundary at which at least
// depth tasks are queued.
func pauseAtDepth(tb testing.TB, s *Simulator, depth int) {
	tb.Helper()
	if s.RunUntil(func(int64, uint64) bool { return s.sus.Len() >= depth }) {
		tb.Fatalf("run ended before %d tasks were queued", depth)
	}
}

// pausedRun starts a run of p and pauses it with depth tasks queued.
func pausedRun(tb testing.TB, p Params, depth int) *Simulator {
	tb.Helper()
	s, err := New(p)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Start(); err != nil {
		tb.Fatal(err)
	}
	pauseAtDepth(tb, s, depth)
	return s
}

// BenchmarkSnapshotEncode measures EncodeSnapshot of a run paused with
// 8k queued tasks.
func BenchmarkSnapshotEncode(b *testing.B) {
	s := pausedRun(b, deepQueueParams(), 8000)
	snap, err := s.EncodeSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EncodeSnapshot(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotRestore measures RestoreSnapshot of the same
// snapshot, including the New it starts from.
func BenchmarkSnapshotRestore(b *testing.B) {
	p := deepQueueParams()
	s := pausedRun(b, p, 8000)
	snap, err := s.EncodeSnapshot()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RestoreSnapshot(p, snap); err != nil {
			b.Fatal(err)
		}
	}
}

// TestSnapshotAllocsIndependentOfQueueDepth pins the checkpoint path's
// allocation discipline: encoding and restoring allocate once per
// section, not once per task, so pausing the same run with about 1k
// and with about 8k queued tasks costs the same number of allocations.
//
// Restoring still allocates one struct per resident configuration and
// per pending event, which scale with the nodes, not the queue. The
// run is a full-reconfiguration one, where every node holds one
// configuration and runs one task at both pause points (asserted), so
// only the queue depth differs.
func TestSnapshotAllocsIndependentOfQueueDepth(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate their message arguments")
	}
	if invariant.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	// A collection empties sync.Pools (fmt's among them), and refilling
	// one is an allocation the snapshot path does not own.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := deepQueueParams()
	p.Partial = false
	s := pausedRun(t, p, 1000)
	var encode, restore [2]float64
	var fabric [2][2]int
	for i, depth := range []int{1000, 8000} {
		pauseAtDepth(t, s, depth)
		for _, n := range s.mgr.Nodes() {
			fabric[i][0] += len(n.Entries)
		}
		fabric[i][1] = s.eng.Queue.Len()
		snap, err := s.EncodeSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		encode[i] = testing.AllocsPerRun(3, func() {
			if _, err := s.EncodeSnapshot(); err != nil {
				t.Fatal(err)
			}
		})
		restore[i] = testing.AllocsPerRun(3, func() {
			if _, err := RestoreSnapshot(p, snap); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d queued, %d bytes: encode %.0f allocs, restore %.0f allocs", s.sus.Len(), len(snap), encode[i], restore[i])
	}
	if fabric[0] != fabric[1] {
		t.Fatalf("resident configurations and pending events differ between the pause points: %v and %v", fabric[0], fabric[1])
	}
	if encode[0] != encode[1] {
		t.Errorf("EncodeSnapshot allocates %.0f times at 1k queued tasks and %.0f at 8k", encode[0], encode[1])
	}
	if restore[0] != restore[1] {
		t.Errorf("RestoreSnapshot allocates %.0f times at 1k queued tasks and %.0f at 8k", restore[0], restore[1])
	}
}

// TestRestoreLeavesQueueHeadroom: a restore reserves the suspension
// queue's arena with headroom, so the first suspensions after a resume
// do not copy the whole arena. After restoring the 8k-deep snapshot,
// queuing an eighth as many tasks again allocates nothing.
func TestRestoreLeavesQueueHeadroom(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariant assertions allocate their message arguments")
	}
	if invariant.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	p := deepQueueParams()
	snap, err := pausedRun(t, p, 8000).EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, err := RestoreSnapshot(p, snap)
	if err != nil {
		t.Fatal(err)
	}
	n := r.sus.Len()
	cfg := r.mgr.Configs()[0]
	extra := make([]model.Task, n/8)
	for i := range extra {
		extra[i].Init(p.Spec.Tasks+i, cfg.ReqArea, cfg.No, 50, 0)
		extra[i].Resolved = cfg
	}
	// As in testing.AllocsPerRun: one thread, so no other goroutine's
	// allocation is counted, and no collection mid-count.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range extra {
		r.sus.Add(&extra[i])
	}
	runtime.ReadMemStats(&after)
	if got := after.Mallocs - before.Mallocs; got != 0 {
		t.Fatalf("queuing %d tasks after restoring %d allocated %d times", len(extra), n, got)
	}
}
