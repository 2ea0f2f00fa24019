package core

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"

	"dreamsim/internal/fault"
	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
	"dreamsim/internal/sim"
	"dreamsim/internal/snapshot"
)

// Checkpoint boundary. A snapshot captures every piece of run state
// that moves between tick boundaries — pending events, counters,
// fabric contents, RNG stream positions, source cursors, queue
// orders — and nothing that New rebuilds deterministically from the
// run parameters (nodes, configurations, handlers, policy tables,
// fault schedules, the SoA scan block). RestoreSnapshot therefore
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
// Version 2 dropped the per-configuration busy lists from the fabric
// section. Version 3 writes the suspended tasks by value in the
// suspension-queue section instead of in the task registry. Version 1
// and 2 payloads still restore.
const SnapshotVersion = 3

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

// faultEventNames names the fault event kinds in restore errors.
var faultEventNames = [evKindCount]string{
	evCrashScripted: "scripted crash",
	evCrashStream:   "random crash",
	evRecover:       "recovery",
	evArmScripted:   "scripted arming",
	evArmStream:     "random arming",
}

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

	// Gather the pending events and the task registry once; their
	// lengths and the queue's size the payload buffer.
	events := s.eng.Queue.Pending()
	tasks, err := s.registryTasks(events)
	if err != nil {
		return nil, err
	}

	w := snapshot.NewSealWriter(SnapshotKind, s.snapshotSizeHint(len(tasks), s.sus.Len(), len(events)))

	// Fingerprint: enough of the parameters to reject a restore into
	// a differently-shaped run before any state is overwritten.
	w.U64(s.params.Seed)
	w.Bool(s.params.Partial)
	w.Bool(true) // every run recycles; restore ignores the byte
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

	// Task registry: every referenced task struct, once, by ascending
	// number.
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

	// Source tag and cursors.
	s.pooled.EncodeState(&w)

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

	// Fabric contents and idle-list orders.
	s.mgr.EncodeState(&w)

	// Suspension queue: the queued tasks by value, in FIFO order, plus
	// the queue's historic peak.
	s.encodeQueue(&w)
	w.Int(s.sus.Peak())

	// Pending events in total (At, seq) order.
	w.Int(len(events))
	for _, ev := range events {
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

	return w.Seal(SnapshotKind, SnapshotVersion), nil
}

// registryTasks builds the task registry: every task struct that run
// state references by number — payloads of pending events, tasks
// resident on nodes and dependency-blocked tasks — once, by ascending
// number. Identity matters: the task a node entry references and the
// one its completion event carries must restore as the same struct.
// Two distinct structs sharing a number, or a registry task that is
// also queued, is an internal-consistency failure: the queue section
// writes its tasks by value, so either would restore as two structs.
// The list is bounded by the fabric and the event queue, not by the
// suspension queue.
func (s *Simulator) registryTasks(events []*sim.Event) ([]*model.Task, error) {
	tasks := make([]*model.Task, 0, len(events)+s.residentEntries()+s.ctx.depBlockedCount)
	for _, ev := range events {
		if t, isTask := ev.A.(*model.Task); isTask && t != nil {
			tasks = append(tasks, t)
		}
	}
	for _, n := range s.mgr.Nodes() {
		for _, e := range n.Entries {
			if e.Task != nil {
				tasks = append(tasks, e.Task)
			}
		}
	}
	for _, t := range s.ctx.depBlocked {
		if t != nil {
			tasks = append(tasks, t)
		}
	}
	slices.SortFunc(tasks, func(a, b *model.Task) int { return cmp.Compare(a.No, b.No) })
	out := tasks[:0]
	for _, t := range tasks {
		if k := len(out) - 1; k >= 0 && out[k].No == t.No {
			if out[k] != t {
				return nil, fmt.Errorf("core: two live task structs share number %d", t.No)
			}
			continue
		}
		if s.sus.Contains(t) {
			return nil, fmt.Errorf("core: queued task %d is referenced outside the suspension queue", t.No)
		}
		out = append(out, t)
	}
	return out, nil
}

// residentEntries counts the configurations resident on the nodes.
func (s *Simulator) residentEntries() int {
	n := 0
	for _, node := range s.mgr.Nodes() {
		n += len(node.Entries)
	}
	return n
}

// Payload size estimate per item, in bytes: upper bounds of the varint
// encodings on the paper's workloads (a registry entry's 17 fields come
// to about 25 bytes there, a queue record to about 14), so
// EncodeSnapshot allocates its buffer once. An underestimate costs a
// buffer growth, never a wrong byte.
const (
	hintBase   = 1024 // fingerprint, counters, flags, source cursors, RNG positions
	hintTask   = 40   // one registry entry
	hintQueued = 16   // one suspension-queue record
	hintRef    = 5    // one task number in the dependency section
	hintEvent  = 16   // one pending event
	hintNode   = 24   // one node's used flag, downtime and fabric header
	hintEntry  = 16   // one resident configuration and its list membership
)

// snapshotSizeHint estimates the payload size of a snapshot with the
// given registry, queue and event counts.
func (s *Simulator) snapshotSizeHint(tasks, queued, events int) int {
	return hintBase + 2*len(s.mgr.Configs()) + 8*len(s.classAcc) +
		hintTask*tasks + hintQueued*queued + hintRef*s.ctx.depBlockedCount + len(s.ctx.terminal) +
		hintEvent*events + hintNode*len(s.mgr.Nodes()) + hintEntry*s.residentEntries()
}

// Flag bits of a suspension-queue record. A record names the fields
// that differ from a fresh task's (model.Task.Init) and whether the
// task has a resolved configuration; any other bit is corruption.
const (
	qResolved  = 1 << iota // Resolved follows, as a configuration number
	qClosest               // ResolvedClosest
	qClass                 // Class follows
	qRetries               // Retries follows
	qStarted               // AssignedConfig, StartTime, CommDelay and ConfigDelay follow
	qCompleted             // CompletionTime follows
	qKnown     = qResolved | qClosest | qClass | qRetries | qStarted | qCompleted
)

// minQueuedBytes is the smallest encoding of one suspension-queue
// record: the flags, three deltas and four fields of one byte each. A
// queue count above the remaining payload over this size cannot be
// genuine, so the decoder rejects it before allocating anything.
const minQueuedBytes = 8

// queueCursor holds the fields of a record's FIFO predecessor that the
// next record stores as deltas; the first record's predecessor is zero.
// The arithmetic wraps, so every int64 round-trips.
type queueCursor struct {
	no, create, retry int64
}

// encodeQueue writes the suspension-queue section: the count, then
// every queued task by value in FIFO order, its SusRetry credited as
// it is written.
func (s *Simulator) encodeQueue(w *snapshot.Writer) {
	w.Int(s.sus.Len())
	var cur queueCursor
	s.sus.Each(func(t *model.Task) { encodeQueued(w, t, &cur) })
}

// encodeQueued appends one suspension-queue record: the flags, No,
// CreateTime and SusRetry as deltas from cur, the fields every task
// carries, then the optional fields the flags name. Status is implied.
func encodeQueued(w *snapshot.Writer, t *model.Task, cur *queueCursor) {
	var flags uint64
	if t.Resolved != nil {
		flags |= qResolved
	}
	if t.ResolvedClosest {
		flags |= qClosest
	}
	if t.Class != 0 {
		flags |= qClass
	}
	if t.Retries != 0 {
		flags |= qRetries
	}
	if t.AssignedConfig != -1 || t.StartTime != -1 || t.CommDelay != 0 || t.ConfigDelay != 0 {
		flags |= qStarted
	}
	if t.CompletionTime != -1 {
		flags |= qCompleted
	}
	w.U64(flags)
	w.I64(int64(t.No) - cur.no)
	w.I64(t.CreateTime - cur.create)
	w.I64(t.SusRetry - cur.retry)
	cur.no, cur.create, cur.retry = int64(t.No), t.CreateTime, t.SusRetry
	w.I64(t.NeededArea)
	w.Int(t.PrefConfig)
	w.I64(t.Data)
	w.I64(t.RequiredTime)
	if flags&qResolved != 0 {
		w.Int(t.Resolved.No)
	}
	if flags&qClass != 0 {
		w.Int(t.Class)
	}
	if flags&qRetries != 0 {
		w.I64(t.Retries)
	}
	if flags&qStarted != 0 {
		w.Int(t.AssignedConfig)
		w.I64(t.StartTime)
		w.I64(t.CommDelay)
		w.I64(t.ConfigDelay)
	}
	if flags&qCompleted != 0 {
		w.I64(t.CompletionTime)
	}
}

// decodeQueued decodes one suspension-queue record into t, a zeroed
// task, and advances cur. It returns the record's resolved
// configuration number, or -1 when it has none; the caller resolves it.
func decodeQueued(r *snapshot.Reader, t *model.Task, cur *queueCursor) (resolved int, err error) {
	flags := r.U64()
	if flags&^qKnown != 0 {
		return 0, fmt.Errorf("%w: suspension-queue record flags %#x", snapshot.ErrCorrupt, flags)
	}
	cur.no += r.I64()
	cur.create += r.I64()
	cur.retry += r.I64()
	t.No, t.CreateTime, t.SusRetry = int(cur.no), cur.create, cur.retry
	t.NeededArea = r.I64()
	t.PrefConfig = r.Int()
	t.Data = r.I64()
	t.RequiredTime = r.I64()
	resolved = -1
	if flags&qResolved != 0 {
		resolved = r.Int()
	}
	t.ResolvedClosest = flags&qClosest != 0
	if flags&qClass != 0 {
		t.Class = r.Int()
	}
	if flags&qRetries != 0 {
		t.Retries = r.I64()
	}
	t.AssignedConfig, t.StartTime = -1, -1
	if flags&qStarted != 0 {
		t.AssignedConfig = r.Int()
		t.StartTime = r.I64()
		t.CommDelay = r.I64()
		t.ConfigDelay = r.I64()
	}
	t.CompletionTime = -1
	if flags&qCompleted != 0 {
		t.CompletionTime = r.I64()
	}
	t.Status = model.TaskSuspended
	return resolved, r.Err()
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
// produce an error wrapping snapshot.ErrCorrupt, never a panic — and
// the restored run must conserve its tasks and pass the structural
// checks of its fabric, suspension queue and event queue.
func RestoreSnapshot(params Params, data []byte) (*Simulator, error) {
	payload, version, err := snapshot.Open(data, SnapshotKind, SnapshotVersion)
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
	if err := s.restore(r, version); err != nil {
		return nil, err
	}
	if err := r.Close(); err != nil {
		return nil, err
	}
	if err := s.conservationError(); err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	if err := s.checkStructures(false); err != nil {
		return nil, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
	}
	s.ran = true
	// A restore allocates a whole run at once, so it often starts a GC
	// cycle. On a few Ps the collector's background worker may share
	// the caller's P and run only once the caller yields or is
	// preempted, about 10 ms later. A caller that keeps allocating
	// meanwhile, as a chain of snapshots and resumes does, has all of
	// it counted live, which can double the next heap goal; yielding
	// here lets the worker finish the cycle first.
	runtime.Gosched()
	return s, nil
}

func (s *Simulator) restore(r *snapshot.Reader, version uint64) error {
	// Fingerprint.
	seed := r.U64()
	partial := r.Bool()
	r.Bool() // the recycling flag: either value restores
	nodes := r.Int()
	configs := r.Int()
	policyName := r.Str()
	faultsOn := r.Bool()
	depsOn := r.Bool()
	classes := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	var diff []string
	diff = mismatch(diff, "seed", seed, s.params.Seed)
	diff = mismatch(diff, "partial reconfiguration", partial, s.params.Partial)
	diff = mismatch(diff, "nodes", nodes, len(s.mgr.Nodes()))
	diff = mismatch(diff, "configurations", configs, len(s.mgr.Configs()))
	diff = mismatch(diff, "policy", policyName, s.policy.Name())
	diff = mismatch(diff, "fault injection", faultsOn, s.faultsOn)
	diff = mismatch(diff, "task dependencies", depsOn, s.depsOn)
	diff = mismatch(diff, "task classes", classes, len(s.classAcc))
	if len(diff) > 0 {
		return fmt.Errorf("%w: snapshot fingerprint does not match run parameters: %s",
			snapshot.ErrCorrupt, strings.Join(diff, "; "))
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
	tasks, err := s.restoreTasks(r)
	if err != nil {
		return err
	}

	// Run context.
	if err := s.restoreContext(r, tasks.find); err != nil {
		return err
	}

	// Source tag and cursors.
	if err := s.pooled.RestoreState(r); err != nil {
		return err
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

	// Fabric contents. The per-class running gauge is not stored: it
	// is recounted from the fabric, and checkStructures then holds it
	// and the running counter to the fabric.
	if err := s.mgr.RestoreState(r, version, tasks.find); err != nil {
		return err
	}
	s.countRunning(s.classRunning)

	// Suspension queue.
	if version < 3 {
		err = s.restoreQueueRefs(r, &tasks)
	} else {
		err = s.restoreQueue(r, tasks.slab)
	}
	if err != nil {
		return err
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
	if err := s.restoreEvents(r, now, &tasks); err != nil {
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

// mismatch appends a note naming one fingerprint field and both of its
// values to diff when the snapshot's value differs from the run's.
func mismatch[T comparable](diff []string, field string, snap, run T) []string {
	if snap == run {
		return diff
	}
	return append(diff, fmt.Sprintf("%s %v in the snapshot, %v in the run", field, snap, run))
}

// restoreQueue rebuilds the suspension queue from a version 3 queue
// section: it decodes the records into one slab and re-queues them in
// stored order. A task number may appear once across the queue and the
// registry. The queue is in ascending number order but for the
// stragglers a reconfiguration fault or a crash re-dispatch appended
// again, so its ascending run is checked against the registry, which is
// in ascending order too, as it is decoded; only when there are
// stragglers are they sorted and merged with both.
func (s *Simulator) restoreQueue(r *snapshot.Reader, registry []model.Task) error {
	n := r.Count()
	if err := r.Err(); err != nil {
		return err
	}
	if n > r.Remaining()/minQueuedBytes {
		return fmt.Errorf("%w: %d queued tasks cannot fit in %d bytes", snapshot.ErrCorrupt, n, r.Remaining())
	}
	if n > s.params.Spec.Tasks-len(registry) {
		return fmt.Errorf("%w: %d queued and %d registered tasks, the run has %d", snapshot.ErrCorrupt, n, len(registry), s.params.Spec.Tasks)
	}
	slab := make([]model.Task, n)
	s.sus.Reserve(n)
	var cur queueCursor
	var stragglers []int
	top := -1 // number of the ascending run's last task
	k := 0    // registry index: registry[:k] is numbered below top
	for i := range slab {
		t := &slab[i]
		resolved, err := decodeQueued(r, t, &cur)
		if err != nil {
			return err
		}
		if t.No < 0 || t.No >= s.params.Spec.Tasks {
			return fmt.Errorf("%w: queued task number %d outside [0, %d)", snapshot.ErrCorrupt, t.No, s.params.Spec.Tasks)
		}
		if err := t.Validate(); err != nil {
			return fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
		}
		switch {
		case t.No > top:
			top = t.No
			for k < len(registry) && registry[k].No < top {
				k++
			}
			if k < len(registry) && registry[k].No == top {
				return fmt.Errorf("%w: task %d is both queued and in the registry", snapshot.ErrCorrupt, top)
			}
		case t.No == top:
			return fmt.Errorf("%w: task %d queued twice", snapshot.ErrCorrupt, t.No)
		default:
			stragglers = append(stragglers, t.No)
		}
		if resolved >= 0 {
			if t.Resolved = s.mgr.ConfigByNo(resolved); t.Resolved == nil {
				return fmt.Errorf("%w: queued task %d resolved to unknown configuration %d", snapshot.ErrCorrupt, t.No, resolved)
			}
		}
		s.sus.Add(t)
	}
	if len(stragglers) > 0 {
		if no := repeatedTask(slab, stragglers, registry); no >= 0 {
			return fmt.Errorf("%w: task %d listed twice across the suspension queue and the registry", snapshot.ErrCorrupt, no)
		}
	}
	return nil
}

// repeatedTask returns a task number that appears twice among the
// queued tasks and the registry, or -1. The queue's ascending run —
// each task numbered above every one before it — is merged in place
// with the sorted stragglers and the registry, which is in ascending
// order, so the cost is linear but for sorting the stragglers.
func repeatedTask(queue []model.Task, stragglers []int, registry []model.Task) int {
	slices.Sort(stragglers)
	prev, top := -1, -1
	for i, j, k := 0, 0, 0; ; {
		for i < len(queue) && queue[i].No < top {
			i++ // a straggler, merged from stragglers
		}
		no, from := 0, 0
		if i < len(queue) {
			no, from = queue[i].No, 1
		}
		if j < len(stragglers) && (from == 0 || stragglers[j] < no) {
			no, from = stragglers[j], 2
		}
		if k < len(registry) && (from == 0 || registry[k].No < no) {
			no, from = registry[k].No, 3
		}
		switch from {
		case 0:
			return -1
		case 1:
			top = no
			i++
		case 2:
			j++
		case 3:
			k++
		}
		if no == prev {
			return no
		}
		prev = no
	}
}

// restoreQueueRefs rebuilds the suspension queue from a version 1 or 2
// queue section, which names registry tasks by number in FIFO order.
func (s *Simulator) restoreQueueRefs(r *snapshot.Reader, tasks *taskTable) error {
	nsus := r.Count()
	if err := r.Err(); err != nil {
		return err
	}
	// Queued tasks are distinct registry entries, which bounds the
	// arena the queue reserves.
	if nsus > len(tasks.slab) {
		return fmt.Errorf("%w: suspension queue of %d tasks, registry holds %d", snapshot.ErrCorrupt, nsus, len(tasks.slab))
	}
	s.sus.Reserve(nsus)
	for i := 0; i < nsus; i++ {
		no := r.Int()
		if err := r.Err(); err != nil {
			return err
		}
		t := tasks.find(no)
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
	return nil
}

// minTaskBytes is the smallest encoding of one registry entry:
// encodeTask writes 17 fields of at least one byte each. A registry
// count above the remaining payload over this size cannot be genuine,
// so the decoder rejects it before allocating anything.
const minTaskBytes = 17

// restoreTasks decodes the task registry into one slab of structs.
// The encoder writes the registry by strictly ascending task number
// and the decoder requires it, which rules out a task encoded twice
// without a lookup table; later sections find tasks in the slab by
// number. The source a snapshot can hold, the one New builds, numbers
// its tasks below Spec.Tasks, and the run context sizes its
// per-task tables by task number, so a number outside [0, Spec.Tasks)
// is rejected here, before any table grows to it. Every task must also
// pass model.Task.Validate, as the source's tasks do: a non-positive
// RequiredTime would schedule its completion in the past.
func (s *Simulator) restoreTasks(r *snapshot.Reader) (taskTable, error) {
	n := r.Count()
	if err := r.Err(); err != nil {
		return taskTable{}, err
	}
	if n > r.Remaining()/minTaskBytes {
		return taskTable{}, fmt.Errorf("%w: %d tasks cannot fit in %d bytes", snapshot.ErrCorrupt, n, r.Remaining())
	}
	slab := make([]model.Task, n)
	for i := range slab {
		t := &slab[i]
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
			return taskTable{}, err
		}
		if t.No < 0 || t.No >= s.params.Spec.Tasks {
			return taskTable{}, fmt.Errorf("%w: task number %d outside [0, %d)", snapshot.ErrCorrupt, t.No, s.params.Spec.Tasks)
		}
		if err := t.Validate(); err != nil {
			return taskTable{}, fmt.Errorf("%w: %v", snapshot.ErrCorrupt, err)
		}
		if i > 0 && t.No <= slab[i-1].No {
			return taskTable{}, fmt.Errorf("%w: task %d listed after task %d (registry not in ascending order)",
				snapshot.ErrCorrupt, t.No, slab[i-1].No)
		}
		if status < 0 || status > int(model.TaskLost) {
			return taskTable{}, fmt.Errorf("%w: task %d status %d", snapshot.ErrCorrupt, t.No, status)
		}
		t.Status = model.TaskStatus(status)
		if resolved >= 0 {
			if t.Resolved = s.mgr.ConfigByNo(resolved); t.Resolved == nil {
				return taskTable{}, fmt.Errorf("%w: task %d resolved to unknown configuration %d", snapshot.ErrCorrupt, t.No, resolved)
			}
		}
	}
	return taskTable{slab: slab}, nil
}

// taskTable resolves task numbers against the restored registry slab,
// which is sorted by number. Lookups in ascending order — the
// suspension queue's, mostly — gallop forward from the previous hit,
// so they cost O(1) each instead of a search of the whole slab.
type taskTable struct {
	slab []model.Task
	next int // slab index just past the previous hit
}

// find returns the restored task numbered no, or nil.
func (tt *taskTable) find(no int) *model.Task {
	lo, hi := 0, len(tt.slab)
	if c := tt.next; c < hi && tt.slab[c].No <= no {
		lo = c
		for step := 1; lo+step < hi; step *= 2 {
			if tt.slab[lo+step].No > no {
				hi = lo + step
				break
			}
			lo += step
		}
	}
	for lo < hi {
		h := int(uint(lo+hi) >> 1)
		if tt.slab[h].No < no {
			lo = h + 1
		} else {
			hi = h
		}
	}
	if lo < len(tt.slab) && tt.slab[lo].No == no {
		tt.next = lo + 1
		return &tt.slab[lo]
	}
	return nil
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
	if nterm > len(s.ctx.terminal) {
		return fmt.Errorf("%w: terminal-status table covers %d tasks, run tracks %d", snapshot.ErrCorrupt, nterm, len(s.ctx.terminal))
	}
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
		if t == nil || no >= len(s.ctx.depBlocked) {
			return fmt.Errorf("%w: dependency table references unknown task %d", snapshot.ErrCorrupt, no)
		}
		if s.ctx.depBlocked[no] != nil {
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
// checks the event population against the restored gauges: one
// pending arrival unless the source drained, one pending completion
// per running task, one pending retry per displaced task, one
// drain-check iff its flag is set. An event beyond its kind's quota is
// rejected before it is pushed, so a hostile event count cannot grow
// the queue.
func (s *Simulator) restoreEvents(r *snapshot.Reader, now int64, tasks *taskTable) error {
	nev := r.Count()
	if err := r.Err(); err != nil {
		return err
	}
	if nev == 0 {
		return fmt.Errorf("%w: no pending events (a finished run cannot be snapshotted)", snapshot.ErrCorrupt)
	}
	maxArrivals, maxDrains := int64(1), int64(0)
	if s.arrDone {
		maxArrivals = 0
	}
	if s.drainCheckQueued {
		maxDrains = 1
	}
	quota := func(kind string, n, max int64) error {
		if n < max {
			return nil
		}
		return fmt.Errorf("%w: more than %d pending %s events", snapshot.ErrCorrupt, max, kind)
	}
	var arrivals, completions, retries, drains int64
	nodes := s.mgr.Nodes()
	// Fault events: each random stream holds at most one pending
	// firing, scripted crashes and armings are bounded by the script,
	// and recoveries by the script's plus one per down node (a random
	// crash schedules its node's recovery).
	var faults, maxFaults [evKindCount]int64
	if s.inj != nil {
		plan := s.inj.Plan()
		if plan.CrashRate > 0 {
			maxFaults[evCrashStream] = 1
		}
		if plan.ReconfigFaultRate > 0 {
			maxFaults[evArmStream] = 1
		}
		for _, ev := range plan.Script {
			switch ev.Kind {
			case fault.KindCrash:
				maxFaults[evCrashScripted]++
			case fault.KindRecover:
				maxFaults[evRecover]++
			case fault.KindReconfigFault:
				maxFaults[evArmScripted]++
			}
		}
		for _, n := range nodes {
			if n.Down {
				maxFaults[evRecover]++
			}
		}
	}
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
			t := tasks.find(no)
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
			if err := quota("arrival", arrivals, maxArrivals); err != nil {
				return err
			}
			t, err := taskOf()
			if err != nil {
				return err
			}
			arrivals++
			s.eng.ScheduleEventAt(at, "arrival", s.hArrival, t, nil)
		case evCompletion:
			if err := quota("completion", completions, s.c.RunningTasks); err != nil {
				return err
			}
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
				t.CompletionEvent = ev
			}
		case evRetry:
			if err := quota("retry", retries, s.retryPending); err != nil {
				return err
			}
			t, err := taskOf()
			if err != nil {
				return err
			}
			retries++
			s.eng.ScheduleEventAt(at, "retry", s.hRetry, t, nil)
		case evDrainCheck:
			if err := quota("drain-check", drains, maxDrains); err != nil {
				return err
			}
			drains++
			s.eng.ScheduleEventAt(at, "drain-check", s.hDrainCheck, nil, nil)
		case evCrashScripted, evCrashStream, evRecover, evArmScripted, evArmStream:
			if s.inj == nil {
				return fmt.Errorf("%w: fault event in a run without fault injection", snapshot.ErrCorrupt)
			}
			if err := quota(faultEventNames[kind], faults[kind], maxFaults[kind]); err != nil {
				return err
			}
			faults[kind]++
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
	if arrivals != maxArrivals {
		return fmt.Errorf("%w: %d pending arrivals, source drained %v", snapshot.ErrCorrupt, arrivals, s.arrDone)
	}
	if completions != s.c.RunningTasks {
		return fmt.Errorf("%w: %d pending completions for %d running tasks", snapshot.ErrCorrupt, completions, s.c.RunningTasks)
	}
	if retries != s.retryPending {
		return fmt.Errorf("%w: %d pending retries, gauge says %d", snapshot.ErrCorrupt, retries, s.retryPending)
	}
	if drains != maxDrains {
		return fmt.Errorf("%w: %d drain-check events, flag says %v", snapshot.ErrCorrupt, drains, s.drainCheckQueued)
	}
	return nil
}
