package core

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"

	"dreamsim/internal/fault"
	"dreamsim/internal/model"
	"dreamsim/internal/report"
	"dreamsim/internal/workload"
)

// materialize drains the exact task stream a run of p would consume
// into a SliceSource, giving the non-recycled reference input. The
// drain uses its own Simulator, so the returned source is independent
// of any run made with it.
func materialize(t *testing.T, p Params) workload.TaskSource {
	t.Helper()
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.SliceSource(workload.Drain(s.Source()))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestStreamEquivalence is the determinism contract of task recycling:
// with identical seeds, a run over the pooled generator (each task
// struct released to its free list as the task terminates) and a run
// over the same tasks replayed from a SliceSource (the whole workload
// drained up front, nothing recycled) must produce byte-identical XML
// reports and deeply equal Results — metrics, raw meter counters,
// phase census, final snapshot. The RNG streams are covered
// transitively: any divergence in draw order would shift workload or
// placement and break the comparison.
func TestStreamEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 7, 0xDEADBEEF} {
		for _, partial := range []bool{false, true} {
			p := smallParams(40, 600, partial)
			p.Seed = seed
			pres := mustRun(t, p)

			mat := p
			mat.Source = materialize(t, p)
			mres := mustRun(t, mat)

			if !reflect.DeepEqual(pres, mres) {
				t.Errorf("seed=%d partial=%v: pooled and replayed results diverged\npooled   %+v\nreplayed %+v",
					seed, partial, pres, mres)
			}

			var px, mx bytes.Buffer
			if err := report.WriteXML(&px, pres.XML(p)); err != nil {
				t.Fatal(err)
			}
			if err := report.WriteXML(&mx, mres.XML(p)); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(px.Bytes(), mx.Bytes()) {
				t.Errorf("seed=%d partial=%v: XML reports not byte-identical", seed, partial)
			}
		}
	}
}

// TestStreamRecyclesThroughSource proves the free list is actually
// exercised: on an overloaded run (suspensions force terminal
// completions to interleave with pending arrivals) the synthetic
// source must hand out recycled task structs instead of allocating
// every one.
func TestStreamRecyclesThroughSource(t *testing.T) {
	p := smallParams(10, 400, true)
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	gen, ok := s.Source().(*workload.ScenarioSource)
	if !ok {
		t.Fatalf("synthetic source is %T, want *workload.ScenarioSource", s.Source())
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if gen.Recycled() == 0 {
		t.Fatal("run never reused a released task")
	}
}

// TestObserverRunRecycles: an OnEvent observer sees a task only during
// its callback, so a run with one recycles like any other. Each task
// number must reach exactly one terminal event, and the result must
// deep-equal the same tasks replayed from a SliceSource.
func TestObserverRunRecycles(t *testing.T) {
	p := smallParams(10, 400, true)
	ref := p
	ref.Source = materialize(t, p)
	want := mustRun(t, ref)

	terminal := make([]int, p.Spec.Tasks)
	p.OnEvent = func(kind string, _ int64, task *model.Task) {
		switch kind {
		case "complete", "discard", "lost":
			terminal[task.No]++
		}
	}
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	gen := s.Source().(*workload.ScenarioSource)
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if gen.Recycled() == 0 {
		t.Fatal("observed run never reused a released task")
	}
	for no, n := range terminal {
		if n != 1 {
			t.Fatalf("task %d reached %d terminal events, want 1", no, n)
		}
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("observed run diverged from the replayed run\nreplayed %+v\nobserved %+v", want, got)
	}
}

// TestFaultedContextHeapIndependentOfTaskCount: what a run context
// keeps after a run with node crashes is governed by the node count and
// the live tasks, not by how many tasks passed through. The test holds
// the context across the measurement, so state the context indexes by
// task number would grow with the task count: a 10x longer run must
// leave the context's retained heap within 256 KiB of the shorter
// run's, where one pointer per extra task number would add 1.4 MB.
func TestFaultedContextHeapIndependentOfTaskCount(t *testing.T) {
	retained := func(tasks int) int64 {
		p := smallParams(2000, tasks, true)
		p.Faults = fault.Plan{CrashRate: 0.001, MeanDowntime: 500}
		p.Scratch = NewRunContext()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if res := mustRun(t, p); res.Counters.NodeCrashes == 0 {
			t.Fatalf("%d-task run crashed no node", tasks)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(p.Scratch)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	small, large := retained(20_000), retained(200_000)
	t.Logf("context retains %d B after 20k tasks, %d B after 200k", small, large)
	if growth := large - small; growth > 256<<10 {
		t.Fatalf("the run context retains %d B more after 200k tasks than after 20k", growth)
	}
}
