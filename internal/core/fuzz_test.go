package core

import (
	"fmt"
	"testing"
	"testing/quick"

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
// identities (see identities).
func TestQuickRandomRuns(t *testing.T) {
	f := func(seed uint16, nodes, tasks, cfgs uint8, partial bool,
		placement uint8, lb, noSus, poisson bool, netHigh uint8, retries uint8) bool {

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
		var id identities
		p.OnEvent = id.observe
		s, err := New(p)
		if err != nil {
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
		if c.GeneratedTasks != int64(spec.Tasks) {
			return false
		}
		if c.CompletedTasks+c.DiscardedTasks != c.GeneratedTasks {
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
// from the lifecycle events of a fault-free run, with no engine code:
//   - Eq. 8: the waits of the placements, each its place tick minus the
//     task's arrival tick plus its communication and configuration
//     delays, sum to TaskWaitTime;
//   - a completion fires at its place tick plus the communication and
//     configuration delays and the task's required time;
//   - Eq. 10: the configuration delays of the placements sum to
//     ConfigurationTime (no bitstream bandwidth, so a placement's
//     configuration delay is its configuration's ConfigTime).
type identities struct {
	wait, configDelay int64
	due               map[int]int64 // task number -> completion tick
	late              error         // the first completion off its tick
}

// observe is the run's OnEvent hook.
func (id *identities) observe(kind string, now int64, task *model.Task) {
	switch kind {
	case "place":
		id.wait += now - task.CreateTime + task.CommDelay + task.ConfigDelay
		id.configDelay += task.ConfigDelay
		if id.due == nil {
			id.due = map[int]int64{}
		}
		id.due[task.No] = now + task.CommDelay + task.ConfigDelay + task.RequiredTime
	case "complete":
		if due := id.due[task.No]; now != due && id.late == nil {
			id.late = fmt.Errorf("completion tick: task %d completed at tick %d, placed to complete at %d", task.No, now, due)
		}
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
	}
	return nil
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
