package fault

import (
	"fmt"

	"dreamsim/internal/rng"
	"dreamsim/internal/sim"
)

// Target is the slice of the simulator the injector acts on. The
// callbacks must tolerate redundant events: crashing a down node and
// recovering an up node are no-ops, which lets scripts and random
// streams overlap safely.
type Target interface {
	// NodeCount is the size of the node population.
	NodeCount() int
	// NodeDown reports whether node no is currently down.
	NodeDown(no int) bool
	// DownCount is how many nodes are currently down; it must agree
	// with NodeDown.
	DownCount() int
	// Crash takes node no down at time now.
	Crash(no int, now int64)
	// Recover brings node no back at time now.
	Recover(no int, now int64)
	// ArmReconfigFault makes the next reconfiguration attempt fail.
	ArmReconfigFault(now int64)
	// Live reports whether the simulation still has work in flight
	// (arrivals pending, tasks running, suspended or retrying). The
	// random fault streams stop perpetuating themselves once the
	// system has drained, so the run can terminate.
	Live() bool
}

// Injector schedules a Plan's fault events into the simulation event
// queue. Construct with NewInjector, then Start once before the
// engine runs.
//
// Fault events carry their meaning in the event payload slots rather
// than in closures, so a checkpoint can classify every pending fault
// event from its Kind and payload alone and rebuild it on restore:
//
//	Kind            A (payload)   B          meaning
//	"fault:crash"   node int      nil        crash that node
//	"fault:crash"   nil           *Injector  random-stream firing
//	"fault:recover" node int      nil        recover that node
//	"fault:cfail"   nil           nil        scripted reconfig fault
//	"fault:cfail"   nil           *Injector  random-stream firing
type Injector struct {
	plan Plan
	r    *rng.RNG
	eng  *sim.Engine
	t    Target

	// pendingRecoveries counts scheduled node recoveries that have
	// not fired yet; the core consults it before declaring the system
	// unable to make progress (a recovering node may yet host the
	// suspended backlog).
	pendingRecoveries int

	// Pre-bound handlers: one method-value allocation each at
	// construction instead of one closure per scheduled fault.
	hCrash, hRecover, hArm sim.Handler
}

// NewInjector validates the plan against the population and builds an
// injector. The RNG is only consulted by the random streams; it must
// be non-nil when either rate is positive.
func NewInjector(plan Plan, r *rng.RNG, eng *sim.Engine, t Target) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if r == nil && (plan.CrashRate > 0 || plan.ReconfigFaultRate > 0) {
		return nil, fmt.Errorf("fault: random fault rates need an RNG stream")
	}
	n := t.NodeCount()
	for i, ev := range plan.Script {
		if ev.Kind != KindReconfigFault && ev.Node >= n {
			return nil, fmt.Errorf("fault: script event %d targets node %d of %d", i, ev.Node, n)
		}
	}
	in := &Injector{plan: plan, r: r, eng: eng, t: t}
	in.hCrash = in.handleCrash
	in.hRecover = in.handleRecover
	in.hArm = in.handleArm
	return in, nil
}

// Plan returns the plan the injector fires.
func (in *Injector) Plan() Plan { return in.plan }

// PendingRecoveries reports how many scheduled recoveries are still
// in flight.
func (in *Injector) PendingRecoveries() int { return in.pendingRecoveries }

// RNG exposes the injector's random stream for checkpointing; nil for
// script-only plans.
func (in *Injector) RNG() *rng.RNG { return in.r }

// Start schedules the scripted events and the first random draws.
// Call exactly once, before the engine runs.
func (in *Injector) Start() {
	for _, ev := range in.plan.Script {
		switch ev.Kind {
		case KindCrash:
			in.eng.ScheduleEventAt(ev.At, "fault:crash", in.hCrash, ev.Node, nil)
		case KindRecover:
			in.pendingRecoveries++
			in.eng.ScheduleEventAt(ev.At, "fault:recover", in.hRecover, ev.Node, nil)
		case KindReconfigFault:
			in.eng.ScheduleEventAt(ev.At, "fault:cfail", in.hArm, nil, nil)
		}
	}
	if in.plan.CrashRate > 0 {
		in.scheduleNextCrash()
	}
	if in.plan.ReconfigFaultRate > 0 {
		in.scheduleNextArming()
	}
}

// handleCrash fires a crash event: a random-stream firing (B set)
// runs the stream step; a targeted event (A = node) crashes that node.
func (in *Injector) handleCrash(ev *sim.Event, now int64) {
	if ev.B != nil {
		in.randomCrash(now)
		return
	}
	in.t.Crash(ev.A.(int), now)
}

// handleRecover fires a scheduled recovery of node A.
func (in *Injector) handleRecover(ev *sim.Event, now int64) {
	in.pendingRecoveries--
	in.t.Recover(ev.A.(int), now)
}

// handleArm fires a reconfiguration fault: a random-stream firing
// (B set) runs the stream step; otherwise it arms one fault directly.
func (in *Injector) handleArm(ev *sim.Event, now int64) {
	if ev.B != nil {
		in.randomArming(now)
		return
	}
	in.t.ArmReconfigFault(now)
}

// RestoreCrash re-schedules a pending crash event from a snapshot:
// either the random stream's next firing or a targeted crash.
func (in *Injector) RestoreCrash(at int64, node int, stream bool) {
	if stream {
		in.eng.ScheduleEventAt(at, "fault:crash", in.hCrash, nil, in)
		return
	}
	in.eng.ScheduleEventAt(at, "fault:crash", in.hCrash, node, nil)
}

// RestoreRecovery re-schedules a pending recovery from a snapshot.
// The pending-recovery counter is derived state — each restored
// event increments it here and decrements it when it fires, exactly
// as the original scheduling did.
func (in *Injector) RestoreRecovery(at int64, node int) {
	in.pendingRecoveries++
	in.eng.ScheduleEventAt(at, "fault:recover", in.hRecover, node, nil)
}

// RestoreArm re-schedules a pending reconfiguration-fault event from
// a snapshot: the random stream's next firing or a scripted arming.
func (in *Injector) RestoreArm(at int64, stream bool) {
	if stream {
		in.eng.ScheduleEventAt(at, "fault:cfail", in.hArm, nil, in)
		return
	}
	in.eng.ScheduleEventAt(at, "fault:cfail", in.hArm, nil, nil)
}

// gap draws one inter-event gap of a Poisson process with the given
// rate, in whole timeticks (at least 1 so streams always advance).
func (in *Injector) gap(rate float64) int64 {
	return 1 + int64(in.r.ExpRate(rate))
}

func (in *Injector) scheduleNextCrash() {
	in.eng.ScheduleEventAfter(in.gap(in.plan.CrashRate), "fault:crash", in.hCrash, nil, in)
}

// randomCrash is one firing of the random crash stream: crash a
// uniformly chosen up node, schedule its recovery after an
// exponential downtime, and perpetuate the stream — unless the
// simulation has drained, in which case the stream dies so the run
// can end.
func (in *Injector) randomCrash(now int64) {
	if !in.t.Live() {
		return
	}
	if no, ok := in.pickUpNode(); ok {
		in.t.Crash(no, now)
		downtime := 1 + int64(in.r.ExpRate(1/in.plan.MeanDowntime))
		in.pendingRecoveries++
		in.eng.ScheduleEventAt(now+downtime, "fault:recover", in.hRecover, no, nil)
	}
	in.scheduleNextCrash()
}

// pickUpNode selects a uniform up node: it draws k below the up count
// and returns the k-th up node in index order. It allocates nothing,
// since the target counts its down nodes. ok is false when the whole
// population is down.
func (in *Injector) pickUpNode() (no int, ok bool) {
	up := in.t.NodeCount() - in.t.DownCount()
	if up <= 0 {
		return 0, false
	}
	k := in.r.Intn(up)
	for no = 0; ; no++ {
		if !in.t.NodeDown(no) {
			if k == 0 {
				return no, true
			}
			k--
		}
	}
}

func (in *Injector) scheduleNextArming() {
	in.eng.ScheduleEventAfter(in.gap(in.plan.ReconfigFaultRate), "fault:cfail", in.hArm, nil, in)
}

// randomArming is one firing of the reconfiguration-fault stream.
func (in *Injector) randomArming(now int64) {
	if !in.t.Live() {
		return
	}
	in.t.ArmReconfigFault(now)
	in.scheduleNextArming()
}
