package core

import (
	"reflect"
	"testing"

	"dreamsim/internal/fault"
	"dreamsim/internal/model"
	"dreamsim/internal/monitor"
	"dreamsim/internal/workload"
)

// TestObserveMatchesNodeWalk holds every monitoring sample of a
// two-class run with crashes to what a walk over the nodes counts at
// the same moment: the node census, the running tasks overall and per
// class, utilization and the instantaneous Eq. 6 wasted area. The
// recorder reads the census and the engine's gauges instead of
// walking, so this pins their upkeep through placements, completions,
// crash displacements and recoveries. Debug mode holds the gauges to
// the fabric after every event as well.
func TestObserveMatchesNodeWalk(t *testing.T) {
	scn, err := workload.ParseScenario(streamCrashScenario)
	if err != nil {
		t.Fatal(err)
	}
	p := smallParams(30, 3000, true)
	p.Seed = 5
	p.Scenario = scn
	p.Faults = fault.Plan{CrashRate: 0.0005, MeanDowntime: 300}
	p.Debug = true
	rec := monitor.NewRecorder(1)
	rec.Classes = 2
	p.Recorder = rec
	var sim *Simulator
	var want []monitor.Sample
	p.OnEvent = func(kind string, now int64, _ *model.Task) {
		if kind == "place" || kind == "complete" {
			want = append(want, walkSample(sim, now, rec.Classes))
		}
	}
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	sim = s
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters.NodeCrashes == 0 || res.Counters.NodeRecoveries == 0 || len(res.Classes) != 2 {
		t.Fatalf("not a two-class run with crashes and recoveries (%d classes, %d crashes, %d recoveries)",
			len(res.Classes), res.Counters.NodeCrashes, res.Counters.NodeRecoveries)
	}
	got := rec.Samples()
	if len(got) != len(want) {
		t.Fatalf("recorded %d samples, the walk took %d", len(got), len(want))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("sample %d: recorded %+v, the walk counts %+v", i, got[i], want[i])
		}
	}
}

// walkSample counts a sample by walking the nodes and their regions.
// A down node holds no configuration, so it counts as blank.
func walkSample(s *Simulator, now int64, classes int) monitor.Sample {
	out := monitor.Sample{Time: now, Suspended: s.sus.Len(), ClassRunning: make([]int, classes)}
	var total, used int64
	for _, n := range s.mgr.Nodes() {
		total += n.TotalArea
		used += n.TotalArea - n.AvailableArea
		running := n.RunningTasks()
		out.Running += running
		switch {
		case n.Blank():
			out.BlankNodes++
		case running == 0:
			out.IdleNodes++
		default:
			out.BusyNodes++
		}
		if !n.Blank() {
			out.WastedArea += n.AvailableArea
		}
		for _, e := range n.Entries {
			if e.Task != nil && e.Task.Class < classes {
				out.ClassRunning[e.Task.Class]++
			}
		}
	}
	if total > 0 {
		out.Utilization = float64(used) / float64(total)
	}
	return out
}
