package core

import (
	"fmt"
	"testing"
	"testing/quick"

	"dreamsim/internal/fault"
	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
	"dreamsim/internal/netmodel"
	"dreamsim/internal/sched"
	"dreamsim/internal/workload"
)

// TestQuickRandomRuns drives the whole engine with randomized small
// parameter sets under Debug (full structural invariant validation
// after every event). Any violation of Eq. 4, list linkage,
// suspension-queue consistency or task accounting fails the property,
// and so does any run that breaks one of the paper's accounting
// identities or task conservation (see identities). A third of the
// runs draw their tasks from a random scenario (see randomScenario),
// so the identities also see multi-class streams, and a third inject
// random node crashes and reconfiguration faults, so they also see
// retried and lost tasks.
func TestQuickRandomRuns(t *testing.T) {
	f := func(seed uint16, nodes, tasks, cfgs uint8, partial bool,
		placement uint8, lb, noSus, poisson bool, netHigh uint8, retries uint8, scn uint16, faults uint8) bool {

		spec := workload.TableII(int(nodes%20)+3, int(tasks%120)+10)
		spec.Configs = int(cfgs%20) + 2
		if poisson {
			spec.Arrival = workload.ArrivalPoisson
		}
		p := Params{
			Spec:    spec,
			Partial: partial,
			Seed:    uint64(seed),
			PolicyOptions: sched.Options{
				Placement:         sched.Placement(placement % 4),
				LoadBalance:       lb,
				DisableSuspension: noSus,
			},
			Net:           netmodel.Model{DelayLow: 0, DelayHigh: int64(netHigh % 40)},
			Debug:         true,
			MaxSusRetries: int64(retries % 5 * 100),
		}
		if scn%3 == 0 {
			p.Scenario = randomScenario(scn / 3)
		}
		if faults%3 == 0 {
			p.Faults = fault.Plan{
				CrashRate:         1e-4 * float64(1+faults/3%4),
				MeanDowntime:      2000,
				ReconfigFaultRate: 2e-4,
			}
			p.Retry = fault.RetryPolicy{Budget: int64(faults / 12 % 3)}
		}
		var id identities
		p.OnEvent = id.observe
		s, err := New(p)
		if err != nil {
			t.Logf("New: %v", err)
			return false
		}
		res, err := s.Run()
		if err != nil {
			t.Logf("run failed: %v", err)
			return false
		}
		c := res.Counters
		if err := id.check(c); err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		if err := id.checkClasses(s.classNames, s.classAcc); err != nil {
			t.Errorf("seed %d: %v", seed, err)
			return false
		}
		if p.Scenario != nil && p.Scenario.MultiClass() && len(s.classAcc) != len(p.Scenario.Classes) {
			t.Errorf("seed %d: %d classes accounted, the scenario has %d", seed, len(s.classAcc), len(p.Scenario.Classes))
			return false
		}
		if c.GeneratedTasks != int64(spec.Tasks) {
			return false
		}
		if c.RunningTasks != 0 || c.SuspendedTasks != 0 {
			return false
		}
		// Final state passes a last full invariant check.
		if err := s.mgr.CheckInvariants(); err != nil {
			t.Logf("final invariants: %v", err)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 60}
	if testing.Short() {
		cfg.MaxCount = 10
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// identities recomputes three of the paper's accounting identities
// and task conservation from the lifecycle events of a run, with no
// engine code:
//   - Eq. 8: the waits of the placements, each its place tick minus the
//     task's arrival tick plus its communication and configuration
//     delays, sum to TaskWaitTime;
//   - a completion fires at its place tick plus the communication and
//     configuration delays and the task's required time;
//   - Eq. 10: the configuration delays of the placements sum to
//     ConfigurationTime (no bitstream bandwidth, so a placement's
//     configuration delay is its configuration's ConfigTime);
//   - task conservation: every arrival ends in one completion, discard
//     or loss, and each of the four event counts equals its counter.
//
// All four hold on faulted runs too. A task a crash displaces is
// placed again, and each placement adds its wait to TaskWaitTime, as
// each "place" event adds it here; the crash cancels the displaced
// placement's completion, so every completion that fires is due at
// its last placement's tick; and a reconfiguration fault strikes
// before any bitstream loads, so it configures nothing and emits no
// "place". On a multi-class run it also checks Eq. 8 per class: the
// waits of a class's placements sum to that class's WaitTime.
type identities struct {
	wait, configDelay int64
	classWait         []int64       // by task class
	due               map[int]int64 // task number -> completion tick
	late              error         // the first completion off its tick

	arrivals, completions, discards, lost int64
}

// observe is the run's OnEvent hook.
func (id *identities) observe(kind string, now int64, task *model.Task) {
	switch kind {
	case "place":
		wait := now - task.CreateTime + task.CommDelay + task.ConfigDelay
		id.wait += wait
		for len(id.classWait) <= task.Class {
			id.classWait = append(id.classWait, 0)
		}
		id.classWait[task.Class] += wait
		id.configDelay += task.ConfigDelay
		if id.due == nil {
			id.due = map[int]int64{}
		}
		id.due[task.No] = now + task.CommDelay + task.ConfigDelay + task.RequiredTime
	case "complete":
		id.completions++
		if due := id.due[task.No]; now != due && id.late == nil {
			id.late = fmt.Errorf("completion tick: task %d completed at tick %d, placed to complete at %d", task.No, now, due)
		}
	case "arrival":
		id.arrivals++
	case "discard":
		id.discards++
	case "lost":
		id.lost++
	}
}

// check reports the first identity the run broke.
func (id *identities) check(c metrics.Counters) error {
	switch {
	case id.wait != c.TaskWaitTime:
		return fmt.Errorf("Eq. 8: the placements' waits sum to %d, TaskWaitTime is %d", id.wait, c.TaskWaitTime)
	case id.late != nil:
		return id.late
	case id.configDelay != c.ConfigurationTime:
		return fmt.Errorf("Eq. 10: the placements' configuration delays sum to %d, ConfigurationTime is %d", id.configDelay, c.ConfigurationTime)
	case id.arrivals != id.completions+id.discards+id.lost:
		return fmt.Errorf("task conservation: %d arrivals, but %d completions + %d discards + %d lost", id.arrivals, id.completions, id.discards, id.lost)
	case id.arrivals != c.GeneratedTasks || id.completions != c.CompletedTasks || id.discards != c.DiscardedTasks || id.lost != c.LostTasks:
		return fmt.Errorf("task conservation: the events count %d arrivals, %d completions, %d discards and %d lost; the counters %d, %d, %d and %d",
			id.arrivals, id.completions, id.discards, id.lost, c.GeneratedTasks, c.CompletedTasks, c.DiscardedTasks, c.LostTasks)
	}
	return nil
}

// checkClasses reports the first class whose placements' waits do not
// sum to its accumulated WaitTime. names and acc are the run's per-class
// accounting, empty unless the run has two or more classes.
func (id *identities) checkClasses(names []string, acc []metrics.ClassCounters) error {
	for i := range acc {
		var wait int64
		if i < len(id.classWait) {
			wait = id.classWait[i]
		}
		if wait != acc[i].WaitTime {
			return fmt.Errorf("per-class Eq. 8: class %q placements' waits sum to %d, its WaitTime is %d", names[i], wait, acc[i].WaitTime)
		}
	}
	return nil
}

// randomScenario derives a fault-free scenario from bits: one to three
// classes, each with its own arrival process (uniform, Poisson, gamma
// or Weibull) and some with their own t_required range, and sometimes
// a load timeline or an arrival spike. Its task count and interval
// come from the run's Spec.
func randomScenario(bits uint16) *workload.Scenario {
	scn := &workload.Scenario{}
	n := 1 + int(bits%3)
	bits /= 3
	for i := 0; i < n; i++ {
		c := workload.ClassSpec{
			Name:         fmt.Sprintf("c%d", i),
			Fraction:     float64(1 + i),
			Arrival:      workload.ArrivalSpec{Set: true, Kind: workload.ArrivalKind(bits % 4), CV: 0.5 + float64(i)},
			Popularity:   -1,
			ClosestMatch: -1,
		}
		bits /= 4
		if bits%2 == 1 {
			c.ReqTimeLow, c.ReqTimeHigh = 100, 5000
		}
		bits /= 2
		scn.Classes = append(scn.Classes, c)
	}
	if bits%2 == 1 {
		scn.Timeline = []workload.TimePoint{{At: 0, Mult: 0.5}, {At: 1500, Mult: 2}}
	}
	if bits/2%2 == 1 {
		scn.Events = []workload.ScheduledEvent{{Kind: workload.EventSpike, Start: 500, End: 1200, Mult: 3}}
	}
	return scn
}

// TestQuickRandomHeteroRuns repeats the property with the capability
// extension enabled.
func TestQuickRandomHeteroRuns(t *testing.T) {
	f := func(seed uint16, nodes, tasks uint8, partial bool, nodeProb, cfgProb uint8) bool {
		spec := workload.TableII(int(nodes%15)+5, int(tasks%80)+10)
		spec.CapKinds = []string{"a", "b", "c"}
		spec.NodeCapProb = 0.2 + float64(nodeProb%80)/100
		spec.ConfigCapProb = float64(cfgProb%60) / 100
		p := Params{Spec: spec, Partial: partial, Seed: uint64(seed), Debug: true}
		s, err := New(p)
		if err != nil {
			return false
		}
		res, err := s.Run()
		if err != nil {
			t.Logf("hetero run failed: %v", err)
			return false
		}
		c := res.Counters
		return c.CompletedTasks+c.DiscardedTasks == c.GeneratedTasks &&
			c.RunningTasks == 0 && c.SuspendedTasks == 0
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
