package core

import (
	"fmt"
	"sort"

	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
	"dreamsim/internal/sim"
	"dreamsim/internal/snapshot"
	"dreamsim/internal/workload"
)

// Checkpoint boundary. A snapshot captures every piece of run state
// that moves between tick boundaries — pending events, counters,
// fabric contents, RNG stream positions, source cursors, queue
// orders — and nothing that New rebuilds deterministically from the
// run parameters (nodes, configurations, handlers, policy tables,
// fault schedules, the fast-search index). RestoreSnapshot therefore
// runs New first and then overwrites the dynamic state, so a restored
// run continues byte-identically to one that never paused.
//
// A snapshot is only legal at a tick boundary: every event at the
// current clock reading has fired and the next pending event lies
// strictly later. RunUntil pauses exactly there.

// SnapshotKind is the envelope kind tag of a core snapshot.
const SnapshotKind = "dreamsim-core"

// SnapshotVersion is the current payload format version. Decoders
// reject anything newer; older versions may be migrated in place.
const SnapshotVersion = 1

// Event kind identifiers in the snapshot payload. The string kinds
// are not serialized: a one-byte ID keeps snapshots compact and makes
// unknown kinds a structured decode error instead of a loose string.
const (
	evArrival = iota
	evCompletion
	evRetry
	evDrainCheck
	evCrashScripted
	evCrashStream
	evRecover
	evArmScripted
	evArmStream
	evKindCount
)

// Now reports the simulation clock.
func (s *Simulator) Now() int64 { return s.eng.Now() }

// Processed reports how many events the run has fired so far.
func (s *Simulator) Processed() uint64 { return s.eng.Processed() }

// EncodeSnapshot serializes the paused run. It fails when the run is
// not at a snapshottable point (never started, already finished,
// failed, or mid-tick) and when the run uses state the boundary
// cannot capture: a caller-supplied Source or Policy (opaque state)
// or a Recorder streaming to a timeline sink.
func (s *Simulator) EncodeSnapshot() ([]byte, error) {
	if !s.ran {
		return nil, fmt.Errorf("core: snapshot before Start")
	}
	if s.err != nil {
		return nil, fmt.Errorf("core: snapshot of a failed run: %w", s.err)
	}
	if s.params.Source != nil {
		return nil, fmt.Errorf("core: a run with a caller-supplied Source cannot be checkpointed")
	}
	if s.params.Policy != nil {
		return nil, fmt.Errorf("core: a run with a caller-supplied Policy cannot be checkpointed")
	}
	next, ok := s.eng.Queue.PeekTime()
	if !ok {
		return nil, fmt.Errorf("core: snapshot of a finished run (event queue empty)")
	}
	if next <= s.eng.Now() {
		return nil, fmt.Errorf("core: snapshot mid-tick (events pending at %d, clock %d)", next, s.eng.Now())
	}

	var w snapshot.Writer

	// Fingerprint: enough of the parameters to reject a restore into
	// a differently-shaped run before any state is overwritten.
	w.U64(s.params.Seed)
	w.Bool(s.params.Partial)
	w.Bool(s.params.Stream)
	w.Int(len(s.mgr.Nodes()))
	w.Int(len(s.mgr.Configs()))
	w.Str(s.policy.Name())
	w.Bool(s.faultsOn)
	w.Bool(s.depsOn)
	w.Int(len(s.classAcc))

	// Engine position.
	w.I64(s.eng.Now())
	w.U64(s.eng.Processed())
	w.U64(s.eng.Queue.NextSeq())

	// Counters, every field in declaration order.
	encodeCounters(&w, s.c)
	w.Int(len(s.classAcc))
	for i := range s.classAcc {
		a := &s.classAcc[i]
		w.I64(a.Generated)
		w.I64(a.Completed)
		w.I64(a.Discarded)
		w.I64(a.Lost)
		w.I64(a.WaitTime)
		w.I64(a.RunTime)
	}

	// Loop flags and in-flight gauges.
	w.Bool(s.arrDone)
	w.I64(s.armedFaults)
	w.I64(s.retryPending)
	w.Bool(s.drainCheckQueued)

	// Queued tasks' retry counts are credited lazily; settle them
	// before the registry records them.
	s.sus.Materialize()

	// Task registry: every live task struct, once, sorted by number.
	// Identity matters — the task referenced by a node entry and by
	// its completion event must restore as the SAME struct — so all
	// later sections reference tasks by number.
	tasks, err := s.liveTasks()
	if err != nil {
		return nil, err
	}
	w.Int(len(tasks))
	for _, t := range tasks {
		encodeTask(&w, t)
	}

	// Run context.
	w.Int(len(s.ctx.used))
	for _, u := range s.ctx.used {
		w.Bool(u)
	}
	w.Int(int(phaseCount))
	for _, n := range s.ctx.phases {
		w.I64(n)
	}
	w.Int(len(s.ctx.terminal))
	for _, st := range s.ctx.terminal {
		w.Int(int(st))
	}
	w.Int(s.ctx.depBlockedCount)
	for _, t := range s.ctx.depBlocked {
		if t != nil {
			w.Int(t.No)
		}
	}
	w.Int(len(s.ctx.downSince))
	for _, at := range s.ctx.downSince {
		w.I64(at)
	}

	// Source cursors.
	switch src := s.source.(type) {
	case *workload.Generator:
		w.Int(0)
		src.EncodeState(&w)
	case *workload.ScenarioSource:
		w.Int(1)
		src.EncodeState(&w)
	default:
		return nil, fmt.Errorf("core: source %T cannot be checkpointed", s.source)
	}

	// RNG stream positions not owned by the source.
	w.Bool(s.policyRNG != nil)
	if s.policyRNG != nil {
		s0, s1 := s.policyRNG.State()
		w.U64(s0)
		w.U64(s1)
	}
	w.Bool(s.inj != nil)
	if s.inj != nil {
		s0, s1 := s.inj.RNG().State()
		w.U64(s0)
		w.U64(s1)
	}

	// Fabric contents and list orders.
	s.mgr.EncodeState(&w)

	// Suspension queue, FIFO order, plus its historic peak.
	w.Int(s.sus.Len())
	for _, t := range s.sus.AppendTasks(nil) {
		w.Int(t.No)
	}
	w.Int(s.sus.Peak())

	// Pending events in total (At, seq) order.
	pending := s.eng.Queue.Pending()
	w.Int(len(pending))
	for _, ev := range pending {
		if err := s.encodeEvent(&w, ev); err != nil {
			return nil, err
		}
	}

	// Monitoring state.
	w.Bool(s.params.Recorder != nil)
	if s.params.Recorder != nil {
		if err := s.params.Recorder.EncodeState(&w); err != nil {
			return nil, err
		}
	}

	return snapshot.Seal(SnapshotKind, SnapshotVersion, w.Bytes()), nil
}

// liveTasks collects every task struct reachable from run state:
// payloads of pending events, suspended tasks, dependency-blocked
// tasks and tasks resident on nodes. Each appears once; two distinct
// structs sharing a number is an internal-consistency failure.
func (s *Simulator) liveTasks() ([]*model.Task, error) {
	seen := make(map[*model.Task]bool)
	byNo := make(map[int]*model.Task)
	var tasks []*model.Task
	add := func(t *model.Task) error {
		if t == nil || seen[t] {
			return nil
		}
		if prev, dup := byNo[t.No]; dup && prev != t {
			return fmt.Errorf("core: two live task structs share number %d", t.No)
		}
		seen[t] = true
		byNo[t.No] = t
		tasks = append(tasks, t)
		return nil
	}
	for _, ev := range s.eng.Queue.Pending() {
		if t, isTask := ev.A.(*model.Task); isTask {
			if err := add(t); err != nil {
				return nil, err
			}
		}
	}
	for _, t := range s.sus.AppendTasks(nil) {
		if err := add(t); err != nil {
			return nil, err
		}
	}
	for _, t := range s.ctx.depBlocked {
		if err := add(t); err != nil {
			return nil, err
		}
	}
	for _, n := range s.mgr.Nodes() {
		for _, e := range n.Entries {
			if err := add(e.Task); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(tasks, func(i, j int) bool { return tasks[i].No < tasks[j].No })
	return tasks, nil
}

// encodeEvent appends one pending event as kind ID, firing time and
// payload references.
func (s *Simulator) encodeEvent(w *snapshot.Writer, ev *sim.Event) error {
	switch ev.Kind {
	case "arrival":
		w.Int(evArrival)
		w.I64(ev.At)
		w.Int(ev.A.(*model.Task).No)
	case "completion":
		w.Int(evCompletion)
		w.I64(ev.At)
		w.Int(ev.A.(*model.Task).No)
		w.Int(ev.B.(*model.Node).No)
	case "retry":
		w.Int(evRetry)
		w.I64(ev.At)
		w.Int(ev.A.(*model.Task).No)
	case "drain-check":
		w.Int(evDrainCheck)
		w.I64(ev.At)
	case "fault:crash":
		if ev.B != nil {
			w.Int(evCrashStream)
			w.I64(ev.At)
		} else {
			w.Int(evCrashScripted)
			w.I64(ev.At)
			w.Int(ev.A.(int))
		}
	case "fault:recover":
		w.Int(evRecover)
		w.I64(ev.At)
		w.Int(ev.A.(int))
	case "fault:cfail":
		if ev.B != nil {
			w.Int(evArmStream)
			w.I64(ev.At)
		} else {
			w.Int(evArmScripted)
			w.I64(ev.At)
		}
	default:
		return fmt.Errorf("core: pending %q event cannot be checkpointed", ev.Kind)
	}
	return nil
}

func encodeCounters(w *snapshot.Writer, c *metrics.Counters) {
	w.Int(c.TotalNodes)
	w.Int(c.TotalConfigs)
	w.I64(c.GeneratedTasks)
	w.I64(c.CompletedTasks)
	w.I64(c.SuspendedTasks)
	w.I64(c.DiscardedTasks)
	w.I64(c.RunningTasks)
	w.I64(c.WastedArea)
	w.U64(c.SchedulerSearch)
	w.U64(c.HousekeepingSteps)
	w.I64(c.TaskWaitTime)
	w.I64(c.TaskRunningTime)
	w.I64(c.ConfigurationTime)
	w.I64(c.Reconfigurations)
	w.I64(c.SusRetries)
	w.I64(c.NodeCrashes)
	w.I64(c.NodeRecoveries)
	w.I64(c.DowntimeTicks)
	w.I64(c.TasksRetried)
	w.I64(c.LostTasks)
	w.I64(c.ReconfigFaults)
	w.I64(c.WastedConfigTime)
	w.I64(c.UsedNodes)
	w.I64(c.SimulationTime)
	w.I64(c.SusQueuePeak)
}

func decodeCounters(r *snapshot.Reader, c *metrics.Counters) {
	c.TotalNodes = r.Int()
	c.TotalConfigs = r.Int()
	c.GeneratedTasks = r.I64()
	c.CompletedTasks = r.I64()
	c.SuspendedTasks = r.I64()
	c.DiscardedTasks = r.I64()
	c.RunningTasks = r.I64()
	c.WastedArea = r.I64()
	c.SchedulerSearch = r.U64()
	c.HousekeepingSteps = r.U64()
	c.TaskWaitTime = r.I64()
	c.TaskRunningTime = r.I64()
	c.ConfigurationTime = r.I64()
	c.Reconfigurations = r.I64()
	c.SusRetries = r.I64()
	c.NodeCrashes = r.I64()
	c.NodeRecoveries = r.I64()
	c.DowntimeTicks = r.I64()
	c.TasksRetried = r.I64()
	c.LostTasks = r.I64()
	c.ReconfigFaults = r.I64()
	c.WastedConfigTime = r.I64()
	c.UsedNodes = r.I64()
	c.SimulationTime = r.I64()
	c.SusQueuePeak = r.I64()
}

func encodeTask(w *snapshot.Writer, t *model.Task) {
	w.Int(t.No)
	w.I64(t.NeededArea)
	w.Int(t.PrefConfig)
	w.Int(t.AssignedConfig)
	w.I64(t.Data)
	w.Int(t.Class)
	w.I64(t.CreateTime)
	w.I64(t.StartTime)
	w.I64(t.CompletionTime)
	w.I64(t.RequiredTime)
	w.I64(t.CommDelay)
	w.I64(t.ConfigDelay)
	w.I64(t.SusRetry)
	w.I64(t.Retries)
	if t.Resolved != nil {
		w.Int(t.Resolved.No)
	} else {
		w.Int(-1)
	}
	w.Bool(t.ResolvedClosest)
	w.Int(int(t.Status))
}

// RestoreSnapshot builds a Simulator from the run parameters and
// overwrites its dynamic state from a snapshot, yielding a run that
// continues exactly where EncodeSnapshot paused. The parameters must
// be the ones the snapshotted run was built with; the embedded
// fingerprint rejects the obvious mismatches. Every decode path
// validates before it mutates — corrupt or adversarial payloads
// produce an error wrapping snapshot.ErrCorrupt, never a panic.
func RestoreSnapshot(params Params, data []byte) (*Simulator, error) {
	payload, _, err := snapshot.Open(data, SnapshotKind, SnapshotVersion)
	if err != nil {
		return nil, err
	}
	if params.Source != nil {
		return nil, fmt.Errorf("core: a run with a caller-supplied Source cannot be restored")
	}
	if params.Policy != nil {
		return nil, fmt.Errorf("core: a run with a caller-supplied Policy cannot be restored")
	}
	s, err := New(params)
	if err != nil {
		return nil, err
	}
	r := snapshot.NewReader(payload)
	if err := s.restore(r); err != nil {
		return nil, err
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	s.ran = true
	return s, nil
}

func (s *Simulator) restore(r *snapshot.Reader) error {
	// Fingerprint.
	seed := r.U64()
	partial := r.Bool()
	stream := r.Bool()
	nodes := r.Int()
	configs := r.Int()
	policyName := r.Str()
	faultsOn := r.Bool()
	depsOn := r.Bool()
	classes := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if seed != s.params.Seed || partial != s.params.Partial || stream != s.params.Stream ||
		nodes != len(s.mgr.Nodes()) || configs != len(s.mgr.Configs()) ||
		policyName != s.policy.Name() || faultsOn != s.faultsOn || depsOn != s.depsOn ||
		classes != len(s.classAcc) {
		return fmt.Errorf("%w: snapshot fingerprint (seed %d, %d nodes, %d configs, policy %q) does not match run parameters (seed %d, %d nodes, %d configs, policy %q)",
			snapshot.ErrCorrupt, seed, nodes, configs, policyName,
			s.params.Seed, len(s.mgr.Nodes()), len(s.mgr.Configs()), s.policy.Name())
	}

	// Engine position. The clock moves now; the queue counters apply
	// after the pending events are re-pushed.
	now := r.I64()
	processed := r.U64()
	nextSeq := r.U64()
	if err := r.Err(); err != nil {
		return err
	}
	if now < 0 {
		return fmt.Errorf("%w: clock at %d", snapshot.ErrCorrupt, now)
	}
	s.eng.Clock.AdvanceTo(now)

	// Counters.
	decodeCounters(r, s.c)
	nacc := r.Count()
	if err := r.Err(); err != nil {
		return err
	}
	if nacc != len(s.classAcc) {
		return fmt.Errorf("%w: %d class accumulators, run has %d", snapshot.ErrCorrupt, nacc, len(s.classAcc))
	}
	for i := range s.classAcc {
		a := &s.classAcc[i]
		a.Generated = r.I64()
		a.Completed = r.I64()
		a.Discarded = r.I64()
		a.Lost = r.I64()
		a.WaitTime = r.I64()
		a.RunTime = r.I64()
	}

	// Loop flags.
	s.arrDone = r.Bool()
	s.armedFaults = r.I64()
	s.retryPending = r.I64()
	s.drainCheckQueued = r.Bool()
	if err := r.Err(); err != nil {
		return err
	}
	if s.armedFaults < 0 || s.retryPending < 0 {
		return fmt.Errorf("%w: negative in-flight gauge", snapshot.ErrCorrupt)
	}

	// Task registry.
	byNo, err := s.restoreTasks(r)
	if err != nil {
		return err
	}
	taskByNo := func(no int) *model.Task { return byNo[no] }

	// Run context.
	if err := s.restoreContext(r, taskByNo); err != nil {
		return err
	}

	// Source cursors.
	tag := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	switch src := s.source.(type) {
	case *workload.Generator:
		if tag != 0 {
			return fmt.Errorf("%w: snapshot source tag %d, run builds a generator", snapshot.ErrCorrupt, tag)
		}
		if err := src.RestoreState(r); err != nil {
			return err
		}
	case *workload.ScenarioSource:
		if tag != 1 {
			return fmt.Errorf("%w: snapshot source tag %d, run builds a scenario source", snapshot.ErrCorrupt, tag)
		}
		if err := src.RestoreState(r); err != nil {
			return err
		}
	default:
		return fmt.Errorf("core: source %T cannot be restored", s.source)
	}

	// RNG stream positions.
	if hasPolicyRNG := r.Bool(); r.Err() == nil && hasPolicyRNG != (s.policyRNG != nil) {
		return fmt.Errorf("%w: snapshot and run disagree on a placement RNG", snapshot.ErrCorrupt)
	} else if hasPolicyRNG {
		s0, s1 := r.U64(), r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		s.policyRNG.SetState(s0, s1)
	}
	if hasInjRNG := r.Bool(); r.Err() == nil && hasInjRNG != (s.inj != nil) {
		return fmt.Errorf("%w: snapshot and run disagree on a fault injector", snapshot.ErrCorrupt)
	} else if hasInjRNG {
		s0, s1 := r.U64(), r.U64()
		if err := r.Err(); err != nil {
			return err
		}
		s.inj.RNG().SetState(s0, s1)
	}
	if err := r.Err(); err != nil {
		return err
	}

	// Fabric contents.
	if err := s.mgr.RestoreState(r, taskByNo); err != nil {
		return err
	}

	// Suspension queue.
	nsus := r.Count()
	if err := r.Err(); err != nil {
		return err
	}
	for i := 0; i < nsus; i++ {
		no := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		t := byNo[no]
		if t == nil {
			return fmt.Errorf("%w: suspension queue references unknown task %d", snapshot.ErrCorrupt, no)
		}
		if t.Status != model.TaskSuspended {
			return fmt.Errorf("%w: queued task %d has status %v", snapshot.ErrCorrupt, no, t.Status)
		}
		if s.sus.Contains(t) {
			return fmt.Errorf("%w: task %d queued twice", snapshot.ErrCorrupt, no)
		}
		s.sus.Add(t)
	}
	peak := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	if peak < 0 {
		return fmt.Errorf("%w: suspension queue peak %d", snapshot.ErrCorrupt, peak)
	}
	s.sus.RestorePeak(peak)

	// Pending events, re-pushed in stored (At, seq) order so the
	// queue's total order is reproduced, then the engine counters.
	if err := s.restoreEvents(r, now, byNo); err != nil {
		return err
	}
	if !s.eng.Queue.RestoreSeq(nextSeq) {
		return fmt.Errorf("%w: event sequence counter %d below %d live events", snapshot.ErrCorrupt, nextSeq, s.eng.Queue.Len())
	}
	s.eng.RestoreProcessed(processed)

	// Monitoring state.
	if hasRecorder := r.Bool(); r.Err() == nil && hasRecorder != (s.params.Recorder != nil) {
		return fmt.Errorf("%w: snapshot and run disagree on a monitor recorder", snapshot.ErrCorrupt)
	} else if hasRecorder {
		if err := s.params.Recorder.RestoreState(r); err != nil {
			return err
		}
	}
	return r.Err()
}

// restoreTasks decodes the task registry into fresh structs.
func (s *Simulator) restoreTasks(r *snapshot.Reader) (map[int]*model.Task, error) {
	n := r.Count()
	if err := r.Err(); err != nil {
		return nil, err
	}
	cfgByNo := make(map[int]*model.Config, len(s.mgr.Configs()))
	for _, cfg := range s.mgr.Configs() {
		cfgByNo[cfg.No] = cfg
	}
	byNo := make(map[int]*model.Task, n)
	for i := 0; i < n; i++ {
		t := &model.Task{}
		t.No = r.Int()
		t.NeededArea = r.I64()
		t.PrefConfig = r.Int()
		t.AssignedConfig = r.Int()
		t.Data = r.I64()
		t.Class = r.Int()
		t.CreateTime = r.I64()
		t.StartTime = r.I64()
		t.CompletionTime = r.I64()
		t.RequiredTime = r.I64()
		t.CommDelay = r.I64()
		t.ConfigDelay = r.I64()
		t.SusRetry = r.I64()
		t.Retries = r.I64()
		resolved := r.Int()
		t.ResolvedClosest = r.Bool()
		status := r.Int()
		if err := r.Err(); err != nil {
			return nil, err
		}
		if t.No < 0 {
			return nil, fmt.Errorf("%w: task number %d", snapshot.ErrCorrupt, t.No)
		}
		if byNo[t.No] != nil {
			return nil, fmt.Errorf("%w: task %d encoded twice", snapshot.ErrCorrupt, t.No)
		}
		if status < 0 || status > int(model.TaskLost) {
			return nil, fmt.Errorf("%w: task %d status %d", snapshot.ErrCorrupt, t.No, status)
		}
		t.Status = model.TaskStatus(status)
		if resolved >= 0 {
			cfg := cfgByNo[resolved]
			if cfg == nil {
				return nil, fmt.Errorf("%w: task %d resolved to unknown configuration %d", snapshot.ErrCorrupt, t.No, resolved)
			}
			t.Resolved = cfg
		}
		byNo[t.No] = t
	}
	return byNo, nil
}

// restoreContext overwrites the run context's per-run accounting.
func (s *Simulator) restoreContext(r *snapshot.Reader, taskByNo func(no int) *model.Task) error {
	nused := r.Count()
	if err := r.Err(); err != nil {
		return err
	}
	if nused != len(s.ctx.used) {
		return fmt.Errorf("%w: used-node set covers %d nodes, run has %d", snapshot.ErrCorrupt, nused, len(s.ctx.used))
	}
	s.ctx.usedCount = 0
	for i := 0; i < nused; i++ {
		u := r.Bool()
		if r.Err() != nil {
			return r.Err()
		}
		s.ctx.used[i] = u
		if u {
			s.ctx.usedCount++
		}
	}

	nphases := r.Count()
	if r.Err() == nil && nphases != int(phaseCount) {
		return fmt.Errorf("%w: %d phase counters, run tracks %d", snapshot.ErrCorrupt, nphases, int(phaseCount))
	}
	for i := 0; i < int(phaseCount); i++ {
		v := r.I64()
		if r.Err() != nil {
			return r.Err()
		}
		if v < 0 {
			return fmt.Errorf("%w: negative phase counter", snapshot.ErrCorrupt)
		}
		s.ctx.phases[i] = v
	}

	nterm := r.Count()
	if err := r.Err(); err != nil {
		return err
	}
	if nterm < len(s.ctx.terminal) {
		return fmt.Errorf("%w: terminal-status table covers %d tasks, run starts at %d", snapshot.ErrCorrupt, nterm, len(s.ctx.terminal))
	}
	s.ctx.terminal = growClear(s.ctx.terminal, nterm)
	for i := 0; i < nterm; i++ {
		st := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		if st < 0 || st > int(model.TaskLost) {
			return fmt.Errorf("%w: terminal status %d", snapshot.ErrCorrupt, st)
		}
		s.ctx.terminal[i] = model.TaskStatus(st)
	}

	nblocked := r.Count()
	if err := r.Err(); err != nil {
		return err
	}
	for i := 0; i < nblocked; i++ {
		no := r.Int()
		if r.Err() != nil {
			return r.Err()
		}
		t := taskByNo(no)
		if t == nil {
			return fmt.Errorf("%w: dependency table references unknown task %d", snapshot.ErrCorrupt, no)
		}
		if s.ctx.blockedTask(no) != nil {
			return fmt.Errorf("%w: task %d blocked twice", snapshot.ErrCorrupt, no)
		}
		s.ctx.setBlocked(t)
	}

	ndown := r.Count()
	if err := r.Err(); err != nil {
		return err
	}
	if ndown != len(s.ctx.downSince) {
		return fmt.Errorf("%w: downtime table covers %d nodes, run tracks %d", snapshot.ErrCorrupt, ndown, len(s.ctx.downSince))
	}
	for i := 0; i < ndown; i++ {
		at := r.I64()
		if r.Err() != nil {
			return r.Err()
		}
		s.ctx.downSince[i] = at
	}
	return nil
}

// restoreEvents re-pushes the pending events in stored order and
// cross-checks the event population against the restored gauges: one
// pending arrival unless the source drained, one pending completion
// per running task, one pending retry per displaced task.
func (s *Simulator) restoreEvents(r *snapshot.Reader, now int64, byNo map[int]*model.Task) error {
	nev := r.Count()
	if err := r.Err(); err != nil {
		return err
	}
	if nev == 0 {
		return fmt.Errorf("%w: no pending events (a finished run cannot be snapshotted)", snapshot.ErrCorrupt)
	}
	var arrivals, completions, retries, drains int64
	nodes := s.mgr.Nodes()
	for i := 0; i < nev; i++ {
		kind := r.Int()
		at := r.I64()
		if err := r.Err(); err != nil {
			return err
		}
		if at < now {
			return fmt.Errorf("%w: pending event at %d behind clock %d", snapshot.ErrCorrupt, at, now)
		}
		if i == 0 && at <= now {
			return fmt.Errorf("%w: earliest pending event at %d not past clock %d (snapshot was not at a tick boundary)", snapshot.ErrCorrupt, at, now)
		}
		taskOf := func() (*model.Task, error) {
			no := r.Int()
			if err := r.Err(); err != nil {
				return nil, err
			}
			t := byNo[no]
			if t == nil {
				return nil, fmt.Errorf("%w: event references unknown task %d", snapshot.ErrCorrupt, no)
			}
			return t, nil
		}
		nodeOf := func() (*model.Node, error) {
			no := r.Int()
			if err := r.Err(); err != nil {
				return nil, err
			}
			if no < 0 || no >= len(nodes) {
				return nil, fmt.Errorf("%w: event references unknown node %d", snapshot.ErrCorrupt, no)
			}
			return nodes[no], nil
		}
		switch kind {
		case evArrival:
			t, err := taskOf()
			if err != nil {
				return err
			}
			arrivals++
			s.eng.ScheduleEventAt(at, "arrival", s.hArrival, t, nil)
		case evCompletion:
			t, err := taskOf()
			if err != nil {
				return err
			}
			node, err := nodeOf()
			if err != nil {
				return err
			}
			completions++
			ev := s.eng.ScheduleEventAt(at, "completion", s.hCompletion, t, node)
			if s.faultsOn {
				s.ctx.setInflight(t.No, ev)
			}
		case evRetry:
			t, err := taskOf()
			if err != nil {
				return err
			}
			retries++
			s.eng.ScheduleEventAt(at, "retry", s.hRetry, t, nil)
		case evDrainCheck:
			drains++
			s.eng.ScheduleEventAt(at, "drain-check", s.hDrainCheck, nil, nil)
		case evCrashScripted, evCrashStream, evRecover, evArmScripted, evArmStream:
			if s.inj == nil {
				return fmt.Errorf("%w: fault event in a run without fault injection", snapshot.ErrCorrupt)
			}
			switch kind {
			case evCrashScripted:
				no, err := nodeOf()
				if err != nil {
					return err
				}
				s.inj.RestoreCrash(at, no.No, false)
			case evCrashStream:
				s.inj.RestoreCrash(at, 0, true)
			case evRecover:
				no, err := nodeOf()
				if err != nil {
					return err
				}
				s.inj.RestoreRecovery(at, no.No)
			case evArmScripted:
				s.inj.RestoreArm(at, false)
			case evArmStream:
				s.inj.RestoreArm(at, true)
			}
		default:
			return fmt.Errorf("%w: unknown event kind %d", snapshot.ErrCorrupt, kind)
		}
	}
	if s.arrDone && arrivals != 0 {
		return fmt.Errorf("%w: %d pending arrivals after the source drained", snapshot.ErrCorrupt, arrivals)
	}
	if !s.arrDone && arrivals != 1 {
		return fmt.Errorf("%w: %d pending arrivals with the source still live", snapshot.ErrCorrupt, arrivals)
	}
	if completions != s.c.RunningTasks {
		return fmt.Errorf("%w: %d pending completions for %d running tasks", snapshot.ErrCorrupt, completions, s.c.RunningTasks)
	}
	if retries != s.retryPending {
		return fmt.Errorf("%w: %d pending retries, gauge says %d", snapshot.ErrCorrupt, retries, s.retryPending)
	}
	if drains > 1 || (drains == 1) != s.drainCheckQueued {
		return fmt.Errorf("%w: %d drain-check events, flag says %v", snapshot.ErrCorrupt, drains, s.drainCheckQueued)
	}
	return nil
}
