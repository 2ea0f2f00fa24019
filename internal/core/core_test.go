package core

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dreamsim/internal/fault"
	"dreamsim/internal/model"
	"dreamsim/internal/report"
	"dreamsim/internal/rng"
	"dreamsim/internal/sched"
	"dreamsim/internal/workload"
)

// smallParams is a quick Table II-shaped run.
func smallParams(nodes, tasks int, partial bool) Params {
	return Params{
		Spec:    workload.TableII(nodes, tasks),
		Partial: partial,
		Seed:    12345,
	}
}

func mustRun(t *testing.T, p Params) *Result {
	t.Helper()
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestRunSmallDebugBothModes(t *testing.T) {
	for _, partial := range []bool{false, true} {
		p := smallParams(10, 200, partial)
		p.Debug = true
		s, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		c := res.Counters
		if c.GeneratedTasks != 200 {
			t.Fatalf("partial=%v: generated %d", partial, c.GeneratedTasks)
		}
		if c.CompletedTasks+c.DiscardedTasks != c.GeneratedTasks {
			t.Fatalf("partial=%v: task accounting broken: completed %d + discarded %d != %d",
				partial, c.CompletedTasks, c.DiscardedTasks, c.GeneratedTasks)
		}
		if c.RunningTasks != 0 || c.SuspendedTasks != 0 {
			t.Fatalf("partial=%v: run ended dirty", partial)
		}
		if c.SimulationTime <= 0 {
			t.Fatalf("partial=%v: simulation time %d", partial, c.SimulationTime)
		}
		if res.Report.TotalUsedNodes > 10 {
			t.Fatalf("used nodes %d > 10", res.Report.TotalUsedNodes)
		}
		// The final census must show a drained fabric.
		if busy := s.mgr.Census().Busy; busy != 0 {
			t.Fatalf("partial=%v: final census shows %d busy nodes", partial, busy)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a := mustRun(t, smallParams(50, 500, true))
	b := mustRun(t, smallParams(50, 500, true))
	if a.Report != b.Report {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a.Report, b.Report)
	}
	if a.Counters != b.Counters {
		t.Fatalf("counters diverged")
	}
}

func TestSeedChangesOutcome(t *testing.T) {
	a := mustRun(t, smallParams(50, 500, true))
	p := smallParams(50, 500, true)
	p.Seed = 99999
	b := mustRun(t, p)
	if a.Report == b.Report {
		t.Fatal("different seeds produced identical reports")
	}
}

func TestScenariosShareWorkload(t *testing.T) {
	// With the same seed, partial and full runs must see the same
	// node geometry and the same task stream (the paper compares the
	// scenarios "for the same set of parameters in each simulation
	// run").
	mk := func(partial bool) *Simulator {
		s, err := New(smallParams(30, 100, partial))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	sa, sb := mk(false), mk(true)
	na, nb := sa.mgr.Nodes(), sb.mgr.Nodes()
	for i := range na {
		if na[i].TotalArea != nb[i].TotalArea || na[i].NetworkDelay != nb[i].NetworkDelay {
			t.Fatalf("node %d differs across scenarios", i)
		}
	}
	ca, cb := sa.mgr.Configs(), sb.mgr.Configs()
	for i := range ca {
		if ca[i].ReqArea != cb[i].ReqArea || ca[i].ConfigTime != cb[i].ConfigTime {
			t.Fatalf("config %d differs across scenarios", i)
		}
	}
	ra, err := sa.Run()
	if err != nil {
		t.Fatal(err)
	}
	rb, err := sb.Run()
	if err != nil {
		t.Fatal(err)
	}
	if ra.Counters.GeneratedTasks != rb.Counters.GeneratedTasks {
		t.Fatal("task streams differ across scenarios")
	}
}

// TestPaperOrderings verifies the qualitative results of the paper's
// evaluation (Figs. 6-10) at a reduced scale: with partial
// reconfiguration the system wastes less area per task, waits less,
// takes fewer scheduling steps and less total scheduler workload, but
// reconfigures more and spends more configuration time per task.
func TestPaperOrderings(t *testing.T) {
	for _, nodes := range []int{100, 200} {
		full := mustRun(t, smallParams(nodes, 2000, false)).Report
		part := mustRun(t, smallParams(nodes, 2000, true)).Report

		if !(part.AvgWastedAreaPerTask < full.AvgWastedAreaPerTask) {
			t.Errorf("nodes=%d Fig6: wasted area partial %.1f !< full %.1f",
				nodes, part.AvgWastedAreaPerTask, full.AvgWastedAreaPerTask)
		}
		if !(part.AvgReconfigCountPerNode > full.AvgReconfigCountPerNode) {
			t.Errorf("nodes=%d Fig7: reconfig/node partial %.2f !> full %.2f",
				nodes, part.AvgReconfigCountPerNode, full.AvgReconfigCountPerNode)
		}
		if !(part.AvgWaitingTimePerTask < full.AvgWaitingTimePerTask) {
			t.Errorf("nodes=%d Fig8: wait partial %.0f !< full %.0f",
				nodes, part.AvgWaitingTimePerTask, full.AvgWaitingTimePerTask)
		}
		if !(part.AvgSchedulingStepsPerTask < full.AvgSchedulingStepsPerTask) {
			t.Errorf("nodes=%d Fig9a: steps partial %.1f !< full %.1f",
				nodes, part.AvgSchedulingStepsPerTask, full.AvgSchedulingStepsPerTask)
		}
		if !(part.TotalSchedulerWorkload < full.TotalSchedulerWorkload) {
			t.Errorf("nodes=%d Fig9b: workload partial %d !< full %d",
				nodes, part.TotalSchedulerWorkload, full.TotalSchedulerWorkload)
		}
		if !(part.AvgReconfigTimePerTask > full.AvgReconfigTimePerTask) {
			t.Errorf("nodes=%d Fig10: config time partial %.2f !> full %.2f",
				nodes, part.AvgReconfigTimePerTask, full.AvgReconfigTimePerTask)
		}
	}
}

// TestPaperNodeCountEffects verifies the 100-vs-200-node observations:
// fewer nodes mean longer waits and more reconfigurations per node.
func TestPaperNodeCountEffects(t *testing.T) {
	for _, partial := range []bool{false, true} {
		small := mustRun(t, smallParams(100, 2000, partial)).Report
		large := mustRun(t, smallParams(200, 2000, partial)).Report
		if !(small.AvgWaitingTimePerTask > large.AvgWaitingTimePerTask) {
			t.Errorf("partial=%v: wait 100n %.0f !> 200n %.0f",
				partial, small.AvgWaitingTimePerTask, large.AvgWaitingTimePerTask)
		}
		if !(small.AvgReconfigCountPerNode > large.AvgReconfigCountPerNode) {
			t.Errorf("partial=%v: reconfig/node 100n %.2f !> 200n %.2f",
				partial, small.AvgReconfigCountPerNode, large.AvgReconfigCountPerNode)
		}
	}
}

func TestTraceSourceRun(t *testing.T) {
	// Generate a task stream, write it to a trace, and run a
	// simulation from the trace; the result must match a synthetic
	// run over the identical stream.
	p := smallParams(20, 300, true)
	synth := mustRun(t, p)

	// Recreate the same stream the simulator consumed.
	s2, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	var tasks []*model.Task
	for {
		task, ok := s2.Source().Next()
		if !ok {
			break
		}
		tasks = append(tasks, task)
	}
	var buf bytes.Buffer
	if err := workload.WriteTrace(&buf, tasks); err != nil {
		t.Fatal(err)
	}

	p.Source = workload.NewTraceReader(&buf)
	traced := mustRun(t, p)
	if synth.Report != traced.Report {
		t.Fatalf("trace-driven run diverged:\n%+v\n%+v", synth.Report, traced.Report)
	}
}

func TestBadTraceFailsRun(t *testing.T) {
	p := smallParams(10, 50, true)
	p.Source = workload.NewTraceReader(strings.NewReader("not a trace"))
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("bad trace did not fail the run")
	}
}

func TestMaxSusRetriesDiscards(t *testing.T) {
	p := smallParams(10, 500, false)
	p.MaxSusRetries = 3
	res := mustRun(t, p)
	if res.Counters.DiscardedTasks == 0 {
		t.Fatal("retry cap never discarded under heavy overload")
	}
	if res.Counters.CompletedTasks+res.Counters.DiscardedTasks != 500 {
		t.Fatal("accounting broken with retry cap")
	}
}

func TestOnEventAccounting(t *testing.T) {
	counts := map[string]int{}
	p := smallParams(10, 200, true)
	p.OnEvent = func(kind string, now int64, task *model.Task) {
		if task == nil || now < 0 {
			t.Fatalf("bad event %s", kind)
		}
		counts[kind]++
	}
	res := mustRun(t, p)
	if counts["arrival"] != 200 {
		t.Fatalf("arrival events %d", counts["arrival"])
	}
	if counts["complete"] != int(res.Counters.CompletedTasks) {
		t.Fatalf("complete events %d vs counter %d", counts["complete"], res.Counters.CompletedTasks)
	}
	if counts["discard"] != int(res.Counters.DiscardedTasks) {
		t.Fatalf("discard events %d vs counter %d", counts["discard"], res.Counters.DiscardedTasks)
	}
	if counts["place"] != int(res.Counters.CompletedTasks) {
		t.Fatalf("place events %d vs completions %d", counts["place"], res.Counters.CompletedTasks)
	}
}

func TestRunTwiceFails(t *testing.T) {
	s, err := New(smallParams(10, 50, true))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("second Run did not fail")
	}
}

func TestBadParamsRejected(t *testing.T) {
	p := smallParams(10, 50, true)
	p.Spec.Nodes = 0
	if _, err := New(p); err == nil {
		t.Fatal("invalid spec accepted")
	}
	p = smallParams(10, 50, true)
	p.MaxSusRetries = -1
	if _, err := New(p); err == nil {
		t.Fatal("negative MaxSusRetries accepted")
	}
	p = smallParams(10, 50, true)
	p.Net.DelayLow = -5
	if _, err := New(p); err == nil {
		t.Fatal("invalid net model accepted")
	}
}

func TestPolicyOptionsFlowThrough(t *testing.T) {
	p := smallParams(30, 300, true)
	p.PolicyOptions = sched.Options{Placement: sched.WorstFit}
	res := mustRun(t, p)
	if !strings.Contains(res.Policy, "worst-fit") {
		t.Fatalf("policy name %q", res.Policy)
	}
	p.PolicyOptions = sched.Options{Placement: sched.RandomFit} // RNG auto-derived
	res = mustRun(t, p)
	if !strings.Contains(res.Policy, "random-fit") {
		t.Fatalf("policy name %q", res.Policy)
	}
}

// TestNewSplitsOneStreamPerConsumer: New gives each consumer of
// randomness its own Split of rng.New(Seed), in its documented order:
// configurations, nodes, tasks, delays, policy, a scenario's
// fault-event script, faults. A stream that two consumers share (the
// policy handed the root itself, the injector handed the policy's
// stream, or the storm script drawn from the task stream) makes one
// consumer's draws move the other's, and a checkpoint would restore
// one position for both. The storm case checks the script New drew
// and dropped by drawing it again from the Split it must come from.
func TestNewSplitsOneStreamPerConsumer(t *testing.T) {
	scn, err := workload.ParseScenario(stormScenario)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		scenario *workload.Scenario
	}{{"plain", nil}, {"storm", scn}} {
		t.Run(c.name, func(t *testing.T) {
			p := smallParams(30, 300, true)
			p.PolicyOptions = sched.Options{Placement: sched.RandomFit}
			p.Faults = fault.Plan{CrashRate: 0.002, MeanDowntime: 200}
			p.Scenario = c.scenario
			s, err := New(p)
			if err != nil {
				t.Fatal(err)
			}
			root := rng.New(p.Seed)
			var splits [7]*rng.RNG
			for i := range splits {
				splits[i] = root.Split()
			}
			faultSplit := splits[5]
			if c.scenario != nil {
				want := c.scenario.FaultEvents(splits[5], len(s.mgr.Nodes()))
				if len(want) == 0 {
					t.Fatal("the storm drew no fault events")
				}
				if !reflect.DeepEqual(s.inj.Plan().Script, want) {
					t.Errorf("storm script is not drawn from its own Split of the root after the policy stream")
				}
				faultSplit = splits[6]
			}
			for _, c := range []struct {
				name      string
				got, want *rng.RNG
			}{{"policy", s.policyRNG, splits[4]}, {"fault", s.inj.RNG(), faultSplit}} {
				if c.got == nil {
					t.Errorf("New built no %s stream", c.name)
					continue
				}
				g0, g1 := c.got.State()
				w0, w1 := c.want.State()
				if g0 != w0 || g1 != w1 {
					t.Errorf("%s stream is not its own Split of the root", c.name)
				}
			}
		})
	}
}

func TestNetworkDelaysFlowIntoWait(t *testing.T) {
	base := smallParams(50, 300, true)
	noNet := mustRun(t, base)
	base.Net.DelayLow, base.Net.DelayHigh = 50, 80
	withNet := mustRun(t, base)
	if !(withNet.Report.AvgWaitingTimePerTask > noNet.Report.AvgWaitingTimePerTask) {
		t.Fatalf("network delays did not raise waits: %v vs %v",
			withNet.Report.AvgWaitingTimePerTask, noNet.Report.AvgWaitingTimePerTask)
	}
}

func TestXMLReportRoundTrip(t *testing.T) {
	p := smallParams(20, 200, true)
	res := mustRun(t, p)
	simrep := res.XML(p)
	var buf bytes.Buffer
	if err := report.WriteXML(&buf, simrep); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "simulation-report") || !strings.Contains(out, "avg_wasted_area_per_task") {
		t.Fatalf("XML missing expected content:\n%s", out)
	}
	var parsed report.Simulation
	if err := xml.NewDecoder(&buf).Decode(&parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Scenario != "partial" || len(parsed.Metrics) != 10 {
		t.Fatalf("parsed report wrong: %+v", parsed)
	}
}

func TestPhaseCensus(t *testing.T) {
	res := mustRun(t, smallParams(50, 1000, true))
	var placed int64
	for _, k := range []string{"allocate", "configure", "partial-configure", "reconfigure"} {
		placed += res.Phases[k]
	}
	if placed != res.Counters.CompletedTasks {
		t.Fatalf("phase census %d != completions %d", placed, res.Counters.CompletedTasks)
	}
	if res.Phases["closest-match"] == 0 {
		t.Fatal("no closest-match placements in 1000 tasks at 15%")
	}
}

func TestDependencyGating(t *testing.T) {
	// Child arrives long before its parent completes: it must be held
	// ("hold" event), then dispatched at the parent's completion tick.
	p := smallParams(10, 2, true) // Deps names tasks in [0, Spec.Tasks)
	tasks := []*model.Task{
		model.NewTask(0, 500, 1, 5000, 0),
		model.NewTask(1, 500, 2, 100, 10), // depends on task 0
	}
	src, err := workload.SliceSource(tasks)
	if err != nil {
		t.Fatal(err)
	}
	p.Source = src
	p.Deps = map[int][]int{1: {0}}
	p.Debug = true

	held := false
	var childStart int64 = -1
	var parentDone int64 = -1
	p.OnEvent = func(kind string, now int64, task *model.Task) {
		switch {
		case kind == "hold" && task.No == 1:
			held = true
		case kind == "place" && task.No == 1:
			childStart = now
		case kind == "complete" && task.No == 0:
			parentDone = now
		}
	}
	res := mustRun(t, p)
	if !held {
		t.Fatal("child was not held despite unmet dependency")
	}
	if childStart < parentDone || parentDone < 0 {
		t.Fatalf("child started at %d before parent completed at %d", childStart, parentDone)
	}
	if res.Counters.CompletedTasks != 2 {
		t.Fatalf("completions: %d", res.Counters.CompletedTasks)
	}
}

// TestDepsOutsideTaskRange: the dependency tables hold Spec.Tasks
// entries, so New rejects a Deps number outside [0, Spec.Tasks), and a
// run whose source emits such a task number fails with an error; none
// of them indexes a table.
func TestDepsOutsideTaskRange(t *testing.T) {
	for _, deps := range []map[int][]int{{1: {-1}}, {-3: {0}}, {1: {2}}, {2: {0}}} {
		p := smallParams(10, 2, true)
		p.Deps = deps
		if _, err := New(p); err == nil || !strings.Contains(err.Error(), "outside [0, Spec.Tasks=2)") {
			t.Errorf("Deps %v: New returned %v, want an out-of-range error", deps, err)
		}
	}
	for _, no := range []int{-1, 2} {
		p := smallParams(10, 2, true)
		src, err := workload.SliceSource([]*model.Task{
			model.NewTask(0, 500, 1, 100, 0),
			model.NewTask(no, 500, 1, 100, 5),
		})
		if err != nil {
			t.Fatal(err)
		}
		p.Source = src
		p.Deps = map[int][]int{1: {0}}
		s, err := New(p)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("emitted task %d, outside", no)) {
			t.Errorf("task %d: Run returned %v, want an out-of-range error", no, err)
		}
	}
}

func TestDefragThreshold(t *testing.T) {
	// Light load: nodes regularly fall fully idle with several
	// resident regions, so compaction fires mid-run and later tasks
	// must reconfigure what it wiped.
	p := smallParams(20, 800, true)
	p.Spec.TaskReqTimeHigh = 500
	base := mustRun(t, p)
	p.DefragThreshold = 2
	defrag := mustRun(t, p)
	if defrag.Phases["defrag"] == 0 {
		t.Fatal("defrag never fired under an overloaded partial run")
	}
	// Compaction wipes resident configurations, forcing more
	// reconfigurations than the baseline.
	if !(defrag.Counters.Reconfigurations > base.Counters.Reconfigurations) {
		t.Fatalf("defrag did not raise reconfigurations: %d vs %d",
			defrag.Counters.Reconfigurations, base.Counters.Reconfigurations)
	}
	if defrag.Counters.CompletedTasks+defrag.Counters.DiscardedTasks != 800 {
		t.Fatal("accounting broken under defrag")
	}
	// Full mode ignores the knob entirely.
	pf := smallParams(20, 300, false)
	pf.DefragThreshold = 1
	full := mustRun(t, pf)
	if full.Phases["defrag"] != 0 {
		t.Fatal("defrag fired on full-reconfiguration nodes")
	}
	// Validation.
	bad := smallParams(10, 50, true)
	bad.DefragThreshold = -1
	if _, err := New(bad); err == nil {
		t.Fatal("negative threshold accepted")
	}
}

func TestCensusMidRun(t *testing.T) {
	p := smallParams(20, 200, true)
	var sim *Simulator
	seen := false
	p.OnEvent = func(kind string, now int64, task *model.Task) {
		if kind == "place" && !seen {
			seen = true
			if c := sim.mgr.Census(); c.Busy < 1 {
				t.Errorf("mid-run census shows no busy node: %+v", c)
			}
		}
	}
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	sim = s
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !seen {
		t.Fatal("no placement observed")
	}
}

// TestPlacementBlocksThroughRuns runs overloaded simulations over 250
// nodes, four 64-slot placement-scan blocks, with Debug on: after
// every event CheckInvariants re-derives each SoA slot from its node
// and checks every block's bounds and entry count, across the
// engine's own transition mix in each scenario.
func TestPlacementBlocksThroughRuns(t *testing.T) {
	scenarios := []struct {
		name string
		tune func(*Params)
	}{
		{"full-reconfig", func(p *Params) { p.Partial = false }},
		{"partial-reconfig", func(p *Params) { p.Partial = true }},
		{"heterogeneous-caps", func(p *Params) {
			p.Partial = true
			p.Spec.CapKinds = []string{"bram", "dsp"}
			p.Spec.NodeCapProb = 0.7
			p.Spec.ConfigCapProb = 0.3
		}},
		{"defrag", func(p *Params) {
			p.Partial = true
			p.DefragThreshold = 3
		}},
		{"bounded-retries", func(p *Params) {
			p.Partial = true
			p.MaxSusRetries = 2
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			p := smallParams(250, 1500, true)
			p.Debug = true
			sc.tune(&p)
			res := mustRun(t, p)
			if res.Phases["reconfigure"] == 0 || res.Counters.SusQueuePeak == 0 {
				t.Fatalf("run never reached Algorithm 1 and the suspension queue (phases %v)", res.Phases)
			}
		})
	}
}
