// Package core implements the DReAMSim engine (the paper's DreamSim
// class, §IV-C): it wires the input subsystem (workload generation),
// the information subsystem (resource information manager), the core
// subsystem (scheduling policy, monitoring, suspension queue) and the
// output subsystem (metrics/report) into one deterministic
// discrete-event simulation (RunScheduler / MakeReport).
package core

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"dreamsim/internal/fault"
	"dreamsim/internal/invariant"
	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
	"dreamsim/internal/monitor"
	"dreamsim/internal/netmodel"
	"dreamsim/internal/resinfo"
	"dreamsim/internal/reslists"
	"dreamsim/internal/rng"
	"dreamsim/internal/sched"
	"dreamsim/internal/sim"
	"dreamsim/internal/workload"
)

// Params configures one simulation run.
type Params struct {
	// Spec holds the Table II workload/resource generation parameters.
	Spec workload.Spec
	// Partial selects the reconfiguration method: true = partial
	// reconfiguration (one node, multiple tasks), false = full
	// reconfiguration (one node, one task).
	Partial bool
	// Seed drives all randomness. Two runs with the same seed and
	// Spec see identical nodes, configurations and task streams even
	// when Partial differs — the paper's "same set of parameters in
	// each simulation run".
	Seed uint64
	// PolicyOptions tune the paper scheduling algorithm; ignored when
	// Policy is set.
	PolicyOptions sched.Options
	// Policy overrides the scheduling policy entirely (optional).
	Policy sched.Policy
	// Net is the communication model (zero value: no delays).
	Net netmodel.Model
	// Source replaces the synthetic task generator with an external
	// arrival stream, e.g. a trace (optional). Spec still generates
	// nodes and configurations.
	Source workload.TaskSource
	// Scenario, when set, compiles the declarative scenario (traffic
	// classes, bursty arrivals, load timelines, scheduled events) onto
	// the task source and fault schedule; nil counts as the empty
	// scenario, the flag-level run. Spec still governs resource
	// generation and the resolved task count/interval (the public
	// layer folds the scenario's tasks/interval lines into an unset
	// Spec via ApplyDefaults). Ignored when Source is set.
	Scenario *workload.Scenario
	// Deprecated: Stream is ignored; every run releases its terminal
	// tasks to a source that implements workload.Recycler.
	Stream bool
	// Deprecated: IntraParallel is ignored; every run is sequential.
	IntraParallel int
	// Debug validates all structural invariants after every event;
	// expensive, meant for tests.
	Debug bool
	// MaxSusRetries, when positive, discards a suspended task after
	// it has been re-examined that many times without placement.
	MaxSusRetries int64
	// Deps lists precedence constraints: Deps[child] = parent task
	// numbers that must complete before child may be scheduled (task-
	// graph workloads, the paper's §VII future work). A task whose
	// parent is discarded is discarded too. Every number it names, and
	// every task number the run's source emits, must lie in
	// [0, Spec.Tasks). dreamsim.RunGraph builds it from each
	// GraphTask's DependsOn.
	Deps map[int][]int
	// DefragThreshold, when positive, compacts fully-idle partial
	// nodes: after the suspension retry, a node left with at least
	// this many idle regions and no running task is blanked, returning
	// its fabric to one contiguous pool for future configurations
	// (region fragmentation is the classic partial-reconfiguration
	// cost; this knob ablates fighting it eagerly).
	DefragThreshold int
	// Faults configures deterministic fault injection (node crashes,
	// recoveries, reconfiguration failures). The zero value disables
	// the subsystem entirely and keeps the run byte-identical to a
	// build without it.
	Faults fault.Plan
	// Retry tunes the re-dispatch path for tasks displaced by node
	// crashes; zero knobs take the fault package defaults. Ignored
	// when Faults is disabled.
	Retry fault.RetryPolicy
	// OnEvent, when set, observes the task lifecycle ("arrival",
	// "place", "suspend", "discard", "complete"; faulty runs add
	// "retry", "lost" and "reconfig-fault"). The *Task is valid only
	// during the call: once a task is completed, discarded or lost,
	// its struct goes back to the run's free list and a later arrival,
	// of this run or of a later run on the same Scratch, reuses it.
	OnEvent func(kind string, now int64, task *model.Task)
	// Recorder, when set, samples system state (the monitoring
	// module's time series) at every placement and completion.
	Recorder *monitor.Recorder
	// Scratch, when set, donates a reusable run context (event-queue
	// pool, dense bookkeeping slices, task free list) so a stream of
	// runs on one worker avoids reallocating per-run state and task
	// structs. Results are identical with or without it. A context
	// must not be shared by concurrent simulators.
	Scratch *RunContext
}

// Validate reports the first incoherent parameter.
func (p *Params) Validate() error {
	if err := p.Spec.Validate(); err != nil {
		return err
	}
	if err := p.Net.Validate(); err != nil {
		return err
	}
	if p.MaxSusRetries < 0 {
		return fmt.Errorf("core: negative MaxSusRetries %d", p.MaxSusRetries)
	}
	if p.DefragThreshold < 0 {
		return fmt.Errorf("core: negative DefragThreshold %d", p.DefragThreshold)
	}
	if err := p.Faults.Validate(); err != nil {
		return err
	}
	if err := p.Retry.Validate(); err != nil {
		return err
	}
	if p.Scenario != nil {
		if err := p.Scenario.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Simulator is one configured simulation run. Use New, then Run once.
type Simulator struct {
	params  Params
	ctx     *RunContext // per-run scratch (owned or donated via Params.Scratch)
	eng     *sim.Engine // ctx's engine
	mgr     *resinfo.Manager
	policy  sched.Policy
	source  workload.TaskSource
	recycle workload.Recycler        // the source's free list; nil when it has none
	pooled  *workload.ScenarioSource // the source New built, holding ctx's free list until Finish
	sus     *reslists.SusQueue
	c       *metrics.Counters
	// policyRNG is the RandomFit placement stream when the core built
	// the policy itself (nil otherwise); stashed so a checkpoint can
	// capture and restore its position.
	policyRNG *rng.RNG
	// Per-traffic-class accounting, parallel slices indexed by
	// model.Task.Class; nil unless the source declares >= 2 classes.
	// classRunning is the gauge of each class's running tasks, which
	// the monitor samples.
	classNames   []string
	classAcc     []metrics.ClassCounters
	classRunning []int
	ran          bool
	arrDone      bool
	depsOn       bool // precedence constraints active (Params.Deps non-empty)
	err          error

	// Pre-bound event handlers: allocated once per run so scheduling
	// an event is allocation-free (payloads ride in the event's A/B
	// slots instead of fresh closures).
	hArrival    sim.Handler
	hCompletion sim.Handler
	hRetry      sim.Handler
	hDrainCheck sim.Handler

	// Fault-injection state, populated only when params.Faults is
	// enabled; all nil/zero on fault-free runs.
	inj              *fault.Injector
	retry            fault.RetryPolicy // normalized retry knobs
	faultsOn         bool
	armedFaults      int64 // pending reconfiguration failures
	retryPending     int64 // displaced tasks awaiting re-dispatch
	drainCheckQueued bool  // a drain-check event is queued
}

// New builds a simulator: it generates the resource population and
// the task source from independent, seed-derived RNG streams so that
// partial/full scenario pairs share identical inputs. Each consumer
// gets its own Split of rng.New(Seed), in this order: configurations,
// nodes, tasks, network delays, then, when the run has them, the
// random-fit policy New builds, a scenario's fault-event script and
// the fault injector.
func New(params Params) (*Simulator, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	root := rng.New(params.Seed)
	cfgR := root.Split()
	nodeR := root.Split()
	taskR := root.Split()
	delayR := root.Split()

	configs := workload.GenConfigs(cfgR, &params.Spec)
	nodes := workload.GenNodes(nodeR, &params.Spec, params.Partial)
	params.Net.AssignDelays(delayR, nodes)

	counters := &metrics.Counters{}
	mgr, err := resinfo.New(nodes, configs, counters)
	if err != nil {
		return nil, err
	}

	source := params.Source
	var pooled *workload.ScenarioSource
	if source == nil {
		src, err := workload.NewScenarioSource(taskR, params.Scenario, &params.Spec, configs)
		if err != nil {
			return nil, err
		}
		source, pooled = src, src
	}
	policy := params.Policy
	var policyRNG *rng.RNG
	if policy == nil {
		opts := params.PolicyOptions
		if opts.Placement == sched.RandomFit && opts.RNG == nil {
			opts.RNG = root.Split()
		}
		policyRNG = opts.RNG
		policy = sched.New(opts)
	}

	// Scheduled scenario events (maintenance windows, fault storms)
	// lower onto the fault plan's script. The storm-victim RNG splits
	// only when such events exist, and after every legacy stream, so
	// event-free runs draw exactly the pre-scenario sequences.
	plan := params.Faults
	if params.Scenario != nil && params.Scenario.HasFaultEvents() {
		stormR := root.Split()
		script := params.Scenario.FaultEvents(stormR, len(nodes))
		plan.Script = append(append([]fault.Event(nil), plan.Script...), script...)
	}

	ctx := params.Scratch
	if ctx == nil {
		ctx = NewRunContext()
	}
	// Task numbers index the dependency tables, which hold Spec.Tasks
	// entries. The children lists are built in sorted child order: map
	// iteration order would make releaseChildren's dispatch order, and
	// with it every task-graph result, vary run to run.
	childNos := make([]int, 0, len(params.Deps))
	for child := range params.Deps {
		childNos = append(childNos, child)
	}
	sort.Ints(childNos)
	depTasks := 0
	if len(childNos) > 0 {
		depTasks = params.Spec.Tasks
	}
	for _, child := range childNos {
		if child < 0 || child >= depTasks {
			return nil, fmt.Errorf("core: Deps names task %d, outside [0, Spec.Tasks=%d)", child, depTasks)
		}
		for _, p := range params.Deps[child] {
			if p < 0 || p >= depTasks {
				return nil, fmt.Errorf("core: task %d depends on task %d, outside [0, Spec.Tasks=%d)", child, p, depTasks)
			}
		}
	}
	ctx.prepare(len(nodes), mgr.Configs(), depTasks, plan.Enabled())

	s := &Simulator{
		params:    params,
		ctx:       ctx,
		eng:       &ctx.eng,
		mgr:       mgr,
		policy:    policy,
		policyRNG: policyRNG,
		source:    source,
		pooled:    pooled,
		sus:       &ctx.sus,
		c:         counters,
	}
	// Terminal tasks go back to the source's free list, so peak heap
	// follows the live tasks, not the task count. Sources without a
	// free list (SliceSource) keep every task.
	s.recycle, _ = source.(workload.Recycler)
	if cs, ok := source.(workload.ClassedSource); ok {
		// Per-class accounting exists only on genuinely multi-class
		// runs; single-class sources keep the legacy result shape.
		if names := cs.ClassNames(); len(names) > 1 {
			s.classNames = names
			s.classAcc = make([]metrics.ClassCounters, len(names))
			s.classRunning = make([]int, len(names))
		}
	}
	s.bindHandlers()
	s.depsOn = len(childNos) > 0
	for _, child := range childNos {
		for _, p := range params.Deps[child] {
			ctx.children[p] = append(ctx.children[p], child)
		}
	}
	if plan.Enabled() {
		// The fault RNG is split only on faulty runs, after every other
		// stream, so fault-free runs draw exactly the same sequences as
		// builds without the subsystem.
		s.retry = params.Retry.WithDefaults()
		s.faultsOn = true
		inj, err := fault.NewInjector(plan, root.Split(), s.eng, faultTarget{s})
		if err != nil {
			return nil, err
		}
		s.inj = inj
	}
	// A source New built draws from and releases into the context's
	// free list, so the task structs of a worker's earlier runs serve
	// this one's arrivals. A caller's Source keeps its own list.
	if pooled != nil {
		pooled.Lend(ctx.tasks)
		ctx.tasks = nil
	}
	return s, nil
}

// bindHandlers builds the simulator's event callbacks once; every
// scheduled event reuses them with its payload in the A/B slots, so
// the event loop never allocates a closure.
func (s *Simulator) bindHandlers() {
	s.hArrival = func(ev *sim.Event, now int64) {
		s.handleArrival(ev.A.(*model.Task), now)
	}
	s.hCompletion = func(ev *sim.Event, now int64) {
		s.handleCompletion(ev.A.(*model.Task), ev.B.(*model.Node), now)
	}
	s.hRetry = func(ev *sim.Event, at int64) {
		task := ev.A.(*model.Task)
		s.retryPending--
		if s.err != nil {
			return
		}
		s.dispatch(task, s.policy.Decide(s.mgr, task), at)
		s.maybeDrain(at)
		s.debugCheck()
	}
	s.hDrainCheck = func(_ *sim.Event, now int64) {
		s.drainCheckQueued = false
		s.maybeDrain(now)
		s.debugCheck()
	}
}

// faultTarget adapts the simulator to the fault.Target callback
// surface the injector acts through.
type faultTarget struct{ s *Simulator }

func (t faultTarget) NodeCount() int          { return len(t.s.mgr.Nodes()) }
func (t faultTarget) NodeDown(no int) bool    { return t.s.mgr.Nodes()[no].Down }
func (t faultTarget) DownCount() int          { return t.s.mgr.Census().Down }
func (t faultTarget) Crash(no int, now int64) { t.s.crashNode(no, now) }
func (t faultTarget) Recover(no int, now int64) {
	t.s.recoverNode(no, now)
}
func (t faultTarget) ArmReconfigFault(now int64) { t.s.armedFaults++ }
func (t faultTarget) Live() bool                 { return t.s.faultLive() }

// faultLive reports whether the simulation still has work in flight;
// the injector's random streams stop perpetuating once it is false.
func (s *Simulator) faultLive() bool {
	return !s.arrDone || s.c.RunningTasks > 0 || s.sus.Len() > 0 || s.retryPending > 0
}

// Deprecated: BatchStats returns 0, 0; runs no longer batch same-tick arrivals.
//
//lint:deadexport (a) benchsuite, a separate module, calls it
func (s *Simulator) BatchStats() (speculated, committed int64) { return 0, 0 }

// Source exposes the task arrival stream. Draining it manually (for
// trace capture) consumes the tasks the run would otherwise see, so
// do not also Run the same Simulator afterwards.
func (s *Simulator) Source() workload.TaskSource { return s.source }

// Run executes the simulation to completion and assembles the result:
// Start, RunUntil(nil) and Finish. A Simulator runs once.
func (s *Simulator) Run() (*Result, error) {
	if err := s.Start(); err != nil {
		return nil, err
	}
	s.RunUntil(nil)
	return s.Finish()
}

// Start primes the run: it schedules the first arrival and opens the
// fault streams, but fires no events. Use with RunUntil and Finish
// when the run needs to pause at tick boundaries (checkpointing);
// plain Run composes all three.
func (s *Simulator) Start() error {
	if s.ran {
		return errors.New("core: Simulator already ran")
	}
	s.ran = true

	s.scheduleNextArrival()
	if s.inj != nil {
		s.inj.Start()
	}
	return s.err
}

// RunUntil fires events until the queue drains (returns true) or
// pause returns true at a tick boundary (returns false). A tick
// boundary is the moment every event at the current clock reading has
// fired and the next pending event lies strictly later — exactly the
// state EncodeSnapshot accepts. pause sees the current clock and the
// number of events processed so far; a nil pause never stops early.
// This is the run's one event loop: Run and every checkpointed run
// drive it.
func (s *Simulator) RunUntil(pause func(now int64, processed uint64) bool) bool {
	for {
		if s.err != nil {
			return true
		}
		next, ok := s.eng.Queue.PeekTime()
		if !ok {
			return true
		}
		if next > s.eng.Now() && pause != nil && pause(s.eng.Now(), s.eng.Processed()) {
			return false
		}
		s.eng.Step()
	}
}

// Finish validates end-of-run accounting and assembles the result.
// It must only be called once the event queue has drained.
func (s *Simulator) Finish() (*Result, error) {
	if s.err != nil {
		return nil, s.err
	}
	if !s.ran {
		return nil, errors.New("core: Finish before Start")
	}
	if s.eng.Queue.Len() != 0 {
		return nil, fmt.Errorf("core: Finish with %d events still pending", s.eng.Queue.Len())
	}

	// The event queue drained: every task must be accounted for.
	s.c.SuspendedTasks = int64(s.sus.Len())
	if s.c.SuspendedTasks != 0 || s.c.RunningTasks != 0 || s.retryPending != 0 {
		return nil, fmt.Errorf("core: run ended with %d suspended, %d running, %d retrying tasks",
			s.c.SuspendedTasks, s.c.RunningTasks, s.retryPending)
	}
	if s.ctx.depBlockedCount != 0 {
		return nil, fmt.Errorf("core: run ended with %d tasks still blocked on dependencies",
			s.ctx.depBlockedCount)
	}
	s.c.SimulationTime = s.eng.Now() // Eq. 5
	s.c.UsedNodes = int64(s.ctx.usedCount)
	s.c.SusQueuePeak = int64(s.sus.Peak())
	if err := s.conservationError(); err != nil {
		return nil, err
	}
	// Every task the run drew is terminal and released, so the free
	// list goes back to the context for the worker's next run.
	if s.pooled != nil {
		s.ctx.tasks = s.pooled.Reclaim()
		s.pooled = nil
	}

	scenario := "full"
	if s.params.Partial {
		scenario = "partial"
	}
	return &Result{
		Report:   metrics.Compute(s.c),
		Counters: *s.c,
		Classes:  metrics.ComputeClasses(s.classNames, s.classAcc),
		Phases:   s.ctx.phasesMap(),
		Policy:   s.policy.Name(),
		Scenario: scenario,
		Seed:     s.params.Seed,
	}, nil
}

// classAccOf returns the task's per-class accumulator, or nil when
// per-class accounting is off (or the index is out of range, which a
// custom Source could produce).
func (s *Simulator) classAccOf(task *model.Task) *metrics.ClassCounters {
	if s.classAcc == nil || task.Class < 0 || task.Class >= len(s.classAcc) {
		return nil
	}
	return &s.classAcc[task.Class]
}

// scheduleNextArrival pulls the next task from the source and queues
// its arrival event.
func (s *Simulator) scheduleNextArrival() {
	task, ok := s.source.Next()
	if !ok {
		s.arrDone = true
		if tr, isTrace := s.source.(*workload.TraceReader); isTrace && tr.Err() != nil {
			s.fail(tr.Err())
		}
		return
	}
	if s.depsOn && (task.No < 0 || task.No >= len(s.ctx.terminal)) {
		s.fail(fmt.Errorf("core: source emitted task %d, outside the dependency tables' [0, Spec.Tasks=%d)",
			task.No, len(s.ctx.terminal)))
		return
	}
	at := task.CreateTime
	if at < s.eng.Now() {
		s.fail(fmt.Errorf("core: source emitted task %d in the past (%d < %d)",
			task.No, at, s.eng.Now()))
		return
	}
	s.eng.ScheduleEventAt(at, "arrival", s.hArrival, task, nil)
}

// handleArrival runs the scheduling algorithm for a newly arrived task.
func (s *Simulator) handleArrival(task *model.Task, now int64) {
	if s.err != nil {
		return
	}
	s.c.GeneratedTasks++
	if ca := s.classAccOf(task); ca != nil {
		ca.Generated++
	}
	s.emit("arrival", now, task)
	s.scheduleNextArrival()

	if s.depsOn {
		switch s.parentGate(task) {
		case gateDiscard:
			s.discard(task, now)
			s.debugCheck()
			return
		case gateBlocked:
			s.ctx.setBlocked(task)
			s.emit("hold", now, task)
			s.debugCheck()
			return
		}
	}
	d := s.policy.Decide(s.mgr, task)
	s.dispatch(task, d, now)
	s.debugCheck()
}

// gateVerdict classifies a task against its precedence constraints.
type gateVerdict int

const (
	gateReady gateVerdict = iota
	gateBlocked
	gateDiscard
)

// parentGate checks whether task's parents allow it to run yet.
func (s *Simulator) parentGate(task *model.Task) gateVerdict {
	for _, p := range s.params.Deps[task.No] {
		switch s.ctx.terminal[p] {
		case model.TaskCompleted:
			// satisfied
		case model.TaskDiscarded, model.TaskLost:
			return gateDiscard
		default:
			return gateBlocked
		}
	}
	return gateReady
}

// releaseChildren re-examines the dependants of a finished parent.
func (s *Simulator) releaseChildren(parentNo int, now int64) {
	for _, childNo := range s.ctx.children[parentNo] {
		child := s.ctx.depBlocked[childNo]
		if child == nil {
			continue // not yet arrived; its arrival will re-check
		}
		switch s.parentGate(child) {
		case gateReady:
			s.ctx.clearBlocked(childNo)
			s.dispatch(child, s.policy.Decide(s.mgr, child), now)
		case gateDiscard:
			s.ctx.clearBlocked(childNo)
			s.discard(child, now)
		}
	}
}

// dispatch applies a scheduling decision to a task.
func (s *Simulator) dispatch(task *model.Task, d sched.Decision, now int64) {
	switch {
	case d.Places():
		s.place(task, d, now)
	case d.Action == sched.ActSuspend:
		s.sus.Add(task)
		s.c.SuspendedTasks = int64(s.sus.Len())
		s.ctx.phases[phaseSuspend]++
		s.emit("suspend", now, task)
	default:
		s.discard(task, now)
	}
}

// place commits a placing decision: mutate resource state, charge
// Eq. 6-8 accounting, and schedule the completion event.
func (s *Simulator) place(task *model.Task, d sched.Decision, now int64) {
	// An armed reconfiguration fault fires on the next decision that
	// loads a bitstream; pure allocations onto an idle region involve
	// no reconfiguration and pass through unharmed.
	if s.armedFaults > 0 && d.Action != sched.ActAllocate {
		s.failReconfig(task, d, now)
		return
	}
	entry, _, err := sched.Apply(s.mgr, task, d)
	if err != nil {
		s.fail(fmt.Errorf("core: applying %s for task %d: %w", d, task.No, err))
		return
	}
	node := entry.Node

	var cfgDelay int64
	if d.Action != sched.ActAllocate {
		cfgDelay = s.params.Net.ConfigDelay(node, d.Config)
	}
	commDelay := s.params.Net.CommDelay(node, task)
	if !fitsClock(now, commDelay, cfgDelay, task.RequiredTime) {
		s.fail(fmt.Errorf("core: task %d would complete %d+%d+%d ticks after tick %d, beyond the clock's range",
			task.No, commDelay, cfgDelay, task.RequiredTime, now))
		return
	}

	task.StartTime = now
	task.CommDelay = commDelay
	task.ConfigDelay = cfgDelay
	s.c.TaskWaitTime += task.WaitTime() // Eq. 8/9
	if ca := s.classAccOf(task); ca != nil {
		ca.WaitTime += task.WaitTime()
		s.classRunning[task.Class]++
	}

	// Eq. 6/7 accumulation: the fabric left unusable beside the task
	// just placed (see DESIGN.md "wasted-area accounting").
	s.c.WastedArea += node.AvailableArea

	s.ctx.markUsed(node.No)
	s.ctx.phases[phase(d.Action)]++
	if d.ClosestMatch {
		s.ctx.phases[phaseClosestMatch]++
	}
	s.c.RunningTasks++
	s.c.SuspendedTasks = int64(s.sus.Len())
	s.emit("place", now, task)

	ev := s.eng.ScheduleEventAfter(commDelay+cfgDelay+task.RequiredTime, "completion",
		s.hCompletion, task, node)
	if s.faultsOn {
		task.CompletionEvent = ev // a crash of node cancels it
	}
}

// fitsClock reports whether three non-negative delays after now still
// name a tick the int64 clock can hold. Only a workload or a tampered
// checkpoint with times near that limit fails it.
func fitsClock(now, a, b, c int64) bool {
	room := math.MaxInt64 - now
	return a >= 0 && b >= 0 && c >= 0 && a <= room && b <= room-a && c <= room-a-b
}

// failReconfig consumes one armed reconfiguration fault: the
// bitstream load aborts, its reconfiguration time is charged as
// wasted, and the task re-enters the suspension queue (the paper's
// suspension path, §IV-C) to be retried by a later scheduling pass.
// No resource state mutates — the fault struck before sched.Apply.
func (s *Simulator) failReconfig(task *model.Task, d sched.Decision, now int64) {
	s.armedFaults--
	s.c.ReconfigFaults++
	s.c.WastedConfigTime += s.params.Net.ConfigDelay(d.TargetNode(), d.Config)
	s.ctx.phases[phaseReconfigFault]++
	s.sus.Add(task)
	s.c.SuspendedTasks = int64(s.sus.Len())
	s.emit("reconfig-fault", now, task)
	// The failed placement may have been the last scheduled activity;
	// re-check drainability once the current event unwinds (this can
	// fire inside a suspension-queue walk, so never drain in place).
	s.scheduleDrainCheck()
}

// discard drops a task permanently; dependants of a discarded task
// can never run, so the verdict cascades to waiting children.
func (s *Simulator) discard(task *model.Task, now int64) {
	task.Status = model.TaskDiscarded
	s.c.DiscardedTasks++
	if ca := s.classAccOf(task); ca != nil {
		ca.Discarded++
	}
	s.ctx.phases[phaseDiscard]++
	s.emit("discard", now, task)
	if s.depsOn {
		s.ctx.terminal[task.No] = model.TaskDiscarded
		s.releaseChildren(task.No, now)
	}
	s.release(task)
}

// release returns a terminally-finished task to the source's free
// list. Nothing in the simulator may touch the pointer afterwards: the
// next arrival reuses the struct.
func (s *Simulator) release(task *model.Task) {
	if invariant.Enabled {
		invariant.Assertf(task.CompletionEvent == nil, "core: task %d released with its completion event pending", task.No)
	}
	if s.recycle != nil {
		s.recycle.Release(task)
	}
}

// handleCompletion is the paper's TaskCompletionProc: release the
// region, update lists and statistics, then feed the freed node to
// the suspension queue.
func (s *Simulator) handleCompletion(task *model.Task, node *model.Node, now int64) {
	if s.err != nil {
		return
	}
	task.CompletionEvent = nil // the event is firing
	if _, err := s.mgr.FinishTask(node, task); err != nil {
		s.fail(fmt.Errorf("core: completing task %d: %w", task.No, err))
		return
	}
	task.Status = model.TaskCompleted
	task.CompletionTime = now
	s.c.CompletedTasks++
	s.c.RunningTasks--
	s.c.TaskRunningTime += task.TurnaroundTime()
	if ca := s.classAccOf(task); ca != nil {
		ca.Completed++
		ca.RunTime += task.TurnaroundTime()
		s.classRunning[task.Class]--
	}
	s.emit("complete", now, task)

	if s.depsOn {
		s.ctx.terminal[task.No] = model.TaskCompleted
		s.releaseChildren(task.No, now)
	}
	s.release(task)
	s.retrySuspended(node, now)
	s.maybeDefrag(node)
	s.maybeDrain(now)
	s.debugCheck()
}

// maybeDrain resolves the still-suspended backlog via full scheduling
// passes once nothing else can free resources: arrivals exhausted,
// nothing running, no displaced task awaiting re-dispatch and no node
// recovery in flight (a recovering node may yet host the backlog).
func (s *Simulator) maybeDrain(now int64) {
	if s.err != nil || !s.arrDone || s.c.RunningTasks != 0 || s.retryPending != 0 {
		return
	}
	if s.sus.Len() == 0 {
		return
	}
	if s.inj != nil && s.inj.PendingRecoveries() > 0 {
		return
	}
	s.drainQueue(now)
}

// scheduleDrainCheck queues a zero-delay drainability re-check.
// Fault paths that suspend work inside a suspension-queue walk must
// not drain re-entrantly; the check runs once the walk unwinds.
// Multiple requests in one event coalesce into one check.
func (s *Simulator) scheduleDrainCheck() {
	if s.drainCheckQueued || s.err != nil {
		return
	}
	s.drainCheckQueued = true
	s.eng.ScheduleEventAfter(0, "drain-check", s.hDrainCheck, nil, nil)
}

// crashNode is the injector's crash callback: blank the node's
// resource state, cancel the completions of its in-flight tasks and
// push the displaced tasks into the retry path. Crashing a node that
// is already down is a no-op, so scripts and random streams overlap
// safely.
func (s *Simulator) crashNode(no int, now int64) {
	if s.err != nil {
		return
	}
	node := s.mgr.Nodes()[no]
	if node.Down {
		return
	}
	victims, err := s.mgr.CrashNode(node)
	if err != nil {
		s.fail(fmt.Errorf("core: crashing node %d: %w", no, err))
		return
	}
	s.c.NodeCrashes++
	s.ctx.downSince[no] = now
	for _, task := range victims {
		if ev := task.CompletionEvent; ev != nil {
			s.eng.Queue.Remove(ev)
			task.CompletionEvent = nil
		}
		s.c.RunningTasks--
		if s.classAccOf(task) != nil {
			s.classRunning[task.Class]--
		}
		s.requeue(task, now)
	}
	s.maybeDrain(now)
	s.debugCheck()
}

// recoverNode is the injector's recovery callback: the node returns
// to service blank and is immediately offered to the suspension
// queue. Recovering an up node is a no-op — but drainability is
// re-checked regardless, because a scripted no-op recovery can be the
// last event gating the final drain.
func (s *Simulator) recoverNode(no int, now int64) {
	if s.err != nil {
		return
	}
	node := s.mgr.Nodes()[no]
	if node.Down {
		if err := s.mgr.RecoverNode(node); err != nil {
			s.fail(fmt.Errorf("core: recovering node %d: %w", no, err))
			return
		}
		s.c.NodeRecoveries++
		s.c.DowntimeTicks += now - s.ctx.downSince[no]
		s.retrySuspended(node, now)
	}
	s.maybeDrain(now)
	s.debugCheck()
}

// requeue sends a crash-displaced task through the retry path: after
// a capped exponential backoff it is re-dispatched through the
// scheduling policy like a fresh arrival. A task displaced more times
// than the retry budget is counted lost.
func (s *Simulator) requeue(task *model.Task, now int64) {
	task.Retries++
	if task.Retries > s.retry.Budget {
		s.lose(task, now)
		return
	}
	task.Status = model.TaskRetrying
	s.c.TasksRetried++
	s.retryPending++
	s.emit("retry", now, task)
	s.eng.ScheduleEventAfter(s.retry.Backoff(task.Retries), "retry", s.hRetry, task, nil)
}

// lose drops a task that exhausted its retry budget. Like a discard
// the verdict is terminal and cascades to dependants, but it is
// accounted separately: a lost task held resources and made progress
// before faults took it down.
func (s *Simulator) lose(task *model.Task, now int64) {
	task.Status = model.TaskLost
	s.c.LostTasks++
	if ca := s.classAccOf(task); ca != nil {
		ca.Lost++
	}
	s.ctx.phases[phaseLost]++
	s.emit("lost", now, task)
	if s.depsOn {
		s.ctx.terminal[task.No] = model.TaskLost
		s.releaseChildren(task.No, now)
	}
	s.release(task)
}

// summarize fills f with what node can offer the suspension queue:
// the configurations it holds idle regions of, and the largest area a
// configuration may need to fit, its unconfigured fabric plus the idle
// regions it could evict. Full-configuration nodes offer only the
// direct match, or their whole fabric when blank: it cannot be
// rewritten piecewise while the retry considers them (see
// Policy.DecideOnNode). The entry walk is housekeeping work.
func (s *Simulator) summarize(node *model.Node, f *reslists.Filter) {
	f.Area, f.Idle = 0, f.Idle[:0]
	busy := false
	for _, e := range node.Entries {
		if e.Idle() {
			f.Idle = append(f.Idle, e.Config.No)
			f.Area += e.Config.ReqArea
		} else {
			busy = true
		}
	}
	s.mgr.ChargeHousekeeping(uint64(len(node.Entries)))
	switch {
	case node.PartialMode:
		f.Area += node.AvailableArea
	case node.Blank():
		// A blank full-mode node (only reachable via crash recovery)
		// can take any fresh configuration that fits.
		f.Area = node.AvailableArea
	default:
		f.Area = 0 // full mode: retry never rewrites the node
		if busy {
			f.Idle = f.Idle[:0] // resident region unusable
		}
	}
}

// retrySuspended walks the suspension queue in FIFO order after node
// released resources (the paper's RemoveTaskFromSusQueue flow),
// placing every queued task the node can still host. Each explored
// queue link is one scheduler search step (the Table I "search links
// explored" unit); the policy is consulted only for tasks the digest
// says could fit, so a miss costs exactly one step. The steps are the
// paper's full FIFO walk, charged arithmetically by SusQueue.Walk: the
// host visits only the tasks whose configuration passes the digest,
// unless the retry cap needs every task's count checked.
func (s *Simulator) retrySuspended(node *model.Node, now int64) {
	if s.sus.Len() == 0 {
		return
	}
	f := &s.ctx.filter
	s.summarize(node, f)
	steps := s.sus.Walk(s.params.MaxSusRetries > 0, f, func(qt *model.Task) bool {
		if s.err != nil {
			return false
		}
		if s.params.MaxSusRetries > 0 && qt.SusRetry > s.params.MaxSusRetries {
			s.sus.Remove(qt)
			s.discard(qt, now)
			return true
		}
		if qt.Resolved != nil && !f.Fits(qt.Resolved) {
			return true // cannot fit: one search step, nothing else
		}
		d := s.policy.DecideOnNode(s.mgr, qt, node)
		if d.Places() {
			s.sus.Remove(qt)
			s.place(qt, d, now)
			s.summarize(node, f) // capacity changed
		}
		return true
	})
	s.c.SusRetries += int64(steps)
	s.mgr.ChargeSearch(steps)
	s.c.SuspendedTasks = int64(s.sus.Len())
}

// drainQueue runs full scheduling passes over the suspended tasks
// until no further progress; remaining suspend verdicts wait on the
// tasks just placed, and discard verdicts are final.
func (s *Simulator) drainQueue(now int64) {
	for s.err == nil {
		progress := false
		s.ctx.drainScratch = s.sus.AppendTasks(s.ctx.drainScratch[:0])
		for _, qt := range s.ctx.drainScratch {
			was := qt.Resolved
			d := s.policy.Decide(s.mgr, qt)
			switch {
			case d.Places():
				s.sus.Remove(qt)
				s.place(qt, d, now)
				progress = true
			case d.Action == sched.ActDiscard:
				s.sus.Remove(qt)
				s.discard(qt, now)
				progress = true
			case d.Action == sched.ActSuspend && s.c.RunningTasks == 0:
				// A suspend verdict with nothing running is only
				// reachable when a down node could still fit the task,
				// and maybeDrain guarantees no recovery is pending —
				// the wait would never end, so the discard is final.
				s.sus.Remove(qt)
				s.discard(qt, now)
				progress = true
			default:
				s.sus.Refile(qt, was) // still queued: keep its bucket current
			}
		}
		if !progress {
			break
		}
		if s.c.RunningTasks > 0 {
			// Someone is running again; completions take over.
			break
		}
	}
	s.c.SuspendedTasks = int64(s.sus.Len())
	if s.err == nil && s.c.RunningTasks == 0 && s.sus.Len() > 0 {
		s.fail(fmt.Errorf("core: drain left %d unplaceable suspended tasks", s.sus.Len()))
	}
}

// maybeDefrag compacts a fully-idle, fragmented partial node when the
// defragmentation knob is on: all resident (idle) regions are evicted
// so the fabric returns to one blank pool. Counts as housekeeping.
func (s *Simulator) maybeDefrag(node *model.Node) {
	t := s.params.DefragThreshold
	if t <= 0 || !node.PartialMode || s.err != nil {
		return
	}
	if node.RunningTasks() > 0 || len(node.Entries) < t {
		return
	}
	if err := s.mgr.BlankNode(node); err != nil {
		s.fail(fmt.Errorf("core: defragmenting node %d: %w", node.No, err))
	}
	s.ctx.phases[phaseDefrag]++
}

// emit publishes a lifecycle event to the observer and feeds the
// monitoring recorder on state-changing events: the node census, the
// running and suspended task counts and the per-class running gauge.
func (s *Simulator) emit(kind string, now int64, task *model.Task) {
	if s.params.OnEvent != nil {
		s.params.OnEvent(kind, now, task)
	}
	if s.params.Recorder != nil && (kind == "place" || kind == "complete") {
		s.params.Recorder.Observe(now, s.mgr.Census(), int(s.c.RunningTasks), s.sus.Len(), s.classRunning)
	}
}

// fail records the first internal error and stops the run.
func (s *Simulator) fail(err error) {
	if s.err == nil {
		s.err = err
	}
}

// debugCheck validates all invariants when Debug is on. Builds with
// -tags invariants additionally re-check task conservation after
// every event, Debug or not.
func (s *Simulator) debugCheck() {
	if invariant.Enabled && s.err == nil {
		if err := s.conservationError(); err != nil {
			invariant.Assertf(false, "%v", err)
		}
	}
	if !s.params.Debug || s.err != nil {
		return
	}
	if err := s.checkStructures(true); err != nil {
		s.fail(err)
	}
}

// checkStructures returns the first failure of the resource
// manager's, the suspension queue's and the event queue's own
// invariant checks, of the running gauges against the fabric, or of
// the running tasks' completion handles. sameTick adds the event
// queue's same-tick order check, which allocates; a restore leaves it
// out, because re-pushing the events in stored order gives them that
// order.
func (s *Simulator) checkStructures(sameTick bool) error {
	if err := s.mgr.CheckInvariants(); err != nil {
		return err
	}
	if err := s.sus.CheckInvariants(); err != nil {
		return err
	}
	byClass := make([]int, len(s.classRunning))
	if running := s.countRunning(byClass); running != s.c.RunningTasks || !slices.Equal(byClass, s.classRunning) {
		return fmt.Errorf("core: the fabric runs %d tasks (by class %v), the gauges say %d (%v)",
			running, byClass, s.c.RunningTasks, s.classRunning)
	}
	if err := s.checkCompletionHandles(); err != nil {
		return err
	}
	if sameTick {
		return s.eng.Queue.CheckInvariants()
	}
	return s.eng.Queue.CheckStructure()
}

// countRunning counts the tasks running on the fabric, adding each
// to byClass at its class's index when per-class accounting is on.
func (s *Simulator) countRunning(byClass []int) int64 {
	var running int64
	for _, n := range s.mgr.Nodes() {
		for _, e := range n.Entries {
			if e.Task == nil {
				continue
			}
			running++
			if s.classAccOf(e.Task) != nil {
				byClass[e.Task.Class]++
			}
		}
	}
	return running
}

// checkCompletionHandles checks the round trip between each running
// task and its completion event: on a faulted run the task's handle is
// the pending completion event that carries the task and its node
// (the queue releases an event's payload when the event is freed), and
// on a fault-free run no task holds one.
func (s *Simulator) checkCompletionHandles() error {
	for _, n := range s.mgr.Nodes() {
		for _, e := range n.Entries {
			t := e.Task
			if t == nil {
				continue
			}
			ev := t.CompletionEvent
			if !s.faultsOn {
				if ev != nil {
					return fmt.Errorf("core: task %d on node %d holds a completion handle on a run without faults", t.No, n.No)
				}
				continue
			}
			if ev == nil || ev.Kind != "completion" || ev.A != any(t) || ev.B != any(n) {
				return fmt.Errorf("core: running task %d on node %d does not hold its pending completion event", t.No, n.No)
			}
		}
	}
	return nil
}

// conservationError reports a broken task-conservation identity:
// every generated task is completed, discarded, lost, running, waiting
// to retry, suspended or dependency-blocked.
func (s *Simulator) conservationError() error {
	settled := s.c.CompletedTasks + s.c.DiscardedTasks + s.c.LostTasks +
		s.c.RunningTasks + s.retryPending +
		int64(s.sus.Len()) + int64(s.ctx.depBlockedCount)
	if settled == s.c.GeneratedTasks {
		return nil
	}
	return fmt.Errorf("core: task conservation broken: generated %d != completed %d + discarded %d + lost %d + running %d + retrying %d + suspended %d + dep-blocked %d",
		s.c.GeneratedTasks, s.c.CompletedTasks, s.c.DiscardedTasks, s.c.LostTasks,
		s.c.RunningTasks, s.retryPending, s.sus.Len(), s.ctx.depBlockedCount)
}
