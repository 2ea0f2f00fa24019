package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"dreamsim/internal/fault"
	"dreamsim/internal/invariant"
	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
	"dreamsim/internal/monitor"
	"dreamsim/internal/snapshot"
	"dreamsim/internal/workload"
)

// pauseAndSnapshot drives p until roughly target events have fired,
// snapshots at the tick boundary, and returns the snapshot. ok is
// false when the run finished before reaching the target.
func pauseAndSnapshot(t *testing.T, p Params, target uint64) (snap []byte, ok bool) {
	t.Helper()
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	done := s.RunUntil(func(_ int64, processed uint64) bool { return processed >= target })
	if done {
		return nil, false
	}
	snap, err = s.EncodeSnapshot()
	if err != nil {
		t.Fatalf("EncodeSnapshot: %v", err)
	}
	return snap, true
}

// TestSnapshotRestoreResumesIdentically is the core-layer equivalence
// check: pause, serialize, restore into a fresh Simulator, run both
// halves to completion, compare the whole Result (reports, counters,
// per-class stats, phase counts) against the uninterrupted run.
func TestSnapshotRestoreResumesIdentically(t *testing.T) {
	for _, partial := range []bool{false, true} {
		p := smallParams(20, 400, partial)
		ref := mustRun(t, p)
		paused := 0
		for _, target := range []uint64{1, 50, 300, 900} {
			snap, ok := pauseAndSnapshot(t, p, target)
			if !ok {
				continue // run finished before this target
			}
			paused++
			s2, err := RestoreSnapshot(p, snap)
			if err != nil {
				t.Fatalf("RestoreSnapshot at %d events: %v", target, err)
			}
			if !s2.RunUntil(nil) {
				t.Fatal("restored run paused with a nil pause")
			}
			got, err := s2.Finish()
			if err != nil {
				t.Fatalf("restored Finish: %v", err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("partial=%v target=%d: restored run diverged\nref: %+v\ngot: %+v", partial, target, ref, got)
			}
		}
		if paused < 2 {
			t.Fatalf("partial=%v: only %d pause points exercised", partial, paused)
		}
	}
}

// TestSnapshotDeterministicBytes pins that pausing the same run at
// the same point twice encodes byte-identical snapshots.
func TestSnapshotDeterministicBytes(t *testing.T) {
	p := smallParams(15, 300, true)
	a, ok := pauseAndSnapshot(t, p, 200)
	if !ok {
		t.Fatal("run too short")
	}
	b, _ := pauseAndSnapshot(t, p, 200)
	if !bytes.Equal(a, b) {
		t.Fatal("two snapshots of the same state differ")
	}
}

// TestSnapshotWithFaults covers the injector sections: scripted and
// random fault streams, pending recoveries, retry events.
func TestSnapshotWithFaults(t *testing.T) {
	p := smallParams(20, 400, true)
	p.Faults = fault.Plan{CrashRate: 0.002, MeanDowntime: 150, ReconfigFaultRate: 0.001}
	ref := mustRun(t, p)
	for _, target := range []uint64{40, 400, 1200} {
		snap, ok := pauseAndSnapshot(t, p, target)
		if !ok {
			t.Fatalf("run finished before %d events", target)
		}
		s2, err := RestoreSnapshot(p, snap)
		if err != nil {
			t.Fatalf("RestoreSnapshot: %v", err)
		}
		s2.RunUntil(nil)
		got, err := s2.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("target=%d: fault run diverged after restore", target)
		}
	}
}

// collidingScenario is a two-class scenario whose per-class clocks
// collide constantly (uniform gaps of at most three ticks each), so
// many ticks carry several arrivals. A flag-level run never puts two
// arrivals on one tick.
const collidingScenario = `dreamsim-scenario v1
tasks 500
interval 3
class batch
  fraction 0.5
  reqtime 500 20000 uniform
end
class interactive
  fraction 0.5
  reqtime 100 2000 uniform
end
`

// TestSnapshotResumeSameTickArrivals pauses a run whose ticks often
// carry several arrivals: at each tick boundary one arrival is
// pending and the source cursor holds the rest of the next tick's, so
// the restored run must finish identically to the uninterrupted one.
func TestSnapshotResumeSameTickArrivals(t *testing.T) {
	scn, err := workload.ParseScenario(collidingScenario)
	if err != nil {
		t.Fatal(err)
	}
	p := smallParams(30, 500, true)
	p.Scenario = scn
	ref := mustRun(t, p)
	for _, target := range []uint64{40, 200, 700} {
		snap, ok := pauseAndSnapshot(t, p, target)
		if !ok {
			t.Fatalf("run finished before %d events", target)
		}
		s, err := RestoreSnapshot(p, snap)
		if err != nil {
			t.Fatalf("RestoreSnapshot at %d events: %v", target, err)
		}
		if !s.RunUntil(nil) {
			t.Fatal("restored run paused with a nil pause")
		}
		got, err := s.Finish()
		if err != nil {
			t.Fatalf("restored Finish: %v", err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("restored at %d events: run diverged", target)
		}
	}
}

// TestSnapshotRejectsWrongParams pins the fingerprint check: a
// snapshot restored under different parameters fails loudly.
func TestSnapshotRejectsWrongParams(t *testing.T) {
	p := smallParams(20, 300, true)
	snap, ok := pauseAndSnapshot(t, p, 100)
	if !ok {
		t.Fatal("run too short")
	}
	q := p
	q.Seed++
	if _, err := RestoreSnapshot(q, snap); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("seed mismatch gave %v, want ErrCorrupt", err)
	}
	q = smallParams(21, 300, true)
	if _, err := RestoreSnapshot(q, snap); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("node-count mismatch gave %v, want ErrCorrupt", err)
	}
	// Fields that the node, configuration and policy counts do not
	// reveal: the error must name the one that differs, with both
	// values.
	q = smallParams(20, 300, false)
	_, err := RestoreSnapshot(q, snap)
	if !errors.Is(err, snapshot.ErrCorrupt) ||
		!strings.Contains(err.Error(), "partial reconfiguration true in the snapshot, false in the run") {
		t.Fatalf("reconfiguration-mode mismatch gave %v, want ErrCorrupt naming the mode", err)
	}
	q = p
	q.Faults = fault.Plan{CrashRate: 0.0005, MeanDowntime: 300}
	_, err = RestoreSnapshot(q, snap)
	if !errors.Is(err, snapshot.ErrCorrupt) ||
		!strings.Contains(err.Error(), "fault injection false in the snapshot, true in the run") {
		t.Fatalf("fault-plan mismatch gave %v, want ErrCorrupt naming fault injection", err)
	}
	if strings.Contains(err.Error(), "seed") || strings.Contains(err.Error(), "partial") {
		t.Fatalf("fault-plan mismatch names fields that match: %v", err)
	}
}

// TestSnapshotRejectsVersionSkew pins the clear-error contract for
// snapshots written by a newer build.
func TestSnapshotRejectsVersionSkew(t *testing.T) {
	p := smallParams(20, 300, true)
	snap, ok := pauseAndSnapshot(t, p, 100)
	if !ok {
		t.Fatal("run too short")
	}
	payload, _, err := snapshot.Open(snap, SnapshotKind, SnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	future := snapshot.Seal(SnapshotKind, SnapshotVersion+1, payload)
	if _, err := RestoreSnapshot(p, future); !errors.Is(err, snapshot.ErrVersion) {
		t.Fatalf("future version gave %v, want ErrVersion", err)
	}
}

// TestSnapshotRestoresEitherStreamByte: the fingerprint's third field
// once recorded whether the run recycled its tasks, so checkpoints from
// older builds carry 0 or 1 there. Both must restore and finish
// deep-equal to the uninterrupted run.
func TestSnapshotRestoresEitherStreamByte(t *testing.T) {
	p := smallParams(20, 400, true)
	ref := mustRun(t, p)
	snap, ok := pauseAndSnapshot(t, p, 300)
	if !ok {
		t.Fatal("run too short")
	}
	payload, version, err := snapshot.Open(snap, SnapshotKind, SnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	r := snapshot.NewReader(payload)
	r.U64()  // seed
	r.Bool() // partial
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	at := len(payload) - r.Remaining()
	if payload[at] > 1 {
		t.Fatalf("fingerprint byte %d is %d, not a bool", at, payload[at])
	}
	for _, stream := range []byte{0, 1} {
		old := bytes.Clone(payload)
		old[at] = stream
		s, err := RestoreSnapshot(p, snapshot.Seal(SnapshotKind, version, old))
		if err != nil {
			t.Fatalf("stream byte %d: %v", stream, err)
		}
		s.RunUntil(nil)
		got, err := s.Finish()
		if err != nil {
			t.Fatalf("stream byte %d: %v", stream, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Fatalf("stream byte %d: restored run diverged\nref: %+v\ngot: %+v", stream, ref, got)
		}
	}
}

// snapshotFixture returns testdata/snapshot_v<version>.bin, a
// checkpoint of FuzzDecodeSnapshot's run, smallParams(10, 120, true)
// paused at 100 processed events, as that version's encoder wrote it:
//   - version 1 (commit 3885f83) with the per-configuration busy lists;
//   - version 2 (commit 228269e) with the suspended tasks in the
//     registry and the queue as task numbers;
//   - version 3 (commit 4d9614e) with the queued tasks by value.
//
// All three hold source tag 0, the layout a flag-level run's source
// had before flag-level runs compiled to the scenario source.
func snapshotFixture(tb testing.TB, version uint64) []byte {
	tb.Helper()
	data, err := os.ReadFile(fmt.Sprintf("testdata/snapshot_v%d.bin", version))
	if err != nil {
		tb.Fatal(err)
	}
	if _, got, err := snapshot.Open(data, SnapshotKind, SnapshotVersion); err != nil || got != version {
		tb.Fatalf("fixture opens as version %d (%v), want version %d", got, err, version)
	}
	return data
}

// resumeFixture restores the version's fixture, hands the restored run
// to check, then runs it out and requires the uninterrupted run's
// Result.
func resumeFixture(t *testing.T, version uint64, check func(*Simulator)) {
	t.Helper()
	p := smallParams(10, 120, true)
	s, err := RestoreSnapshot(p, snapshotFixture(t, version))
	if err != nil {
		t.Fatal(err)
	}
	check(s)
	s.RunUntil(nil)
	got, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if ref := mustRun(t, p); !reflect.DeepEqual(ref, got) {
		t.Fatalf("restored run diverged\nref: %+v\ngot: %+v", ref, got)
	}
}

// TestSnapshotV1Restores: a version 1 checkpoint still resumes. Its
// busy-list sections are read and discarded, and the run finishes
// deep-equal to the uninterrupted one.
func TestSnapshotV1Restores(t *testing.T) {
	resumeFixture(t, 1, func(s *Simulator) {
		if err := s.mgr.CheckInvariants(); err != nil {
			t.Fatalf("restored fabric: %v", err)
		}
	})
}

// TestSnapshotV2Restores: a version 2 checkpoint, as dreamserve job
// directories hold them, still resumes through the registry and its
// queue of task numbers, and the run finishes deep-equal to the
// uninterrupted one.
func TestSnapshotV2Restores(t *testing.T) {
	resumeFixture(t, 2, func(s *Simulator) {
		if s.sus.Len() == 0 {
			t.Fatal("fixture restored with an empty suspension queue")
		}
	})
}

// TestSnapshotV3Restores: a version 3 checkpoint of a flag-level run,
// as dreamserve job directories hold them, resumes through the queue
// records and the tag 0 source cursor, which carries no pending gap,
// and the run finishes deep-equal to the uninterrupted one.
func TestSnapshotV3Restores(t *testing.T) {
	resumeFixture(t, 3, func(s *Simulator) {
		if s.sus.Len() == 0 {
			t.Fatal("fixture restored with an empty suspension queue")
		}
	})
}

// TestSnapshotSourceTagMatchesRNG: a one-class gamma scenario draws
// from a class substream and a flag-level run from the task stream,
// under the same fingerprint. The source tag tells them apart, so a
// checkpoint of either kind fails to restore into the other, the
// committed tag 0 fixture included.
func TestSnapshotSourceTagMatchesRNG(t *testing.T) {
	flag := smallParams(10, 120, true)
	gamma := flag
	gamma.Scenario = &workload.Scenario{Arrival: workload.ArrivalSpec{Set: true, Kind: workload.ArrivalGamma, CV: 2}}
	snap := func(p Params) []byte {
		data, ok := pauseAndSnapshot(t, p, 100)
		if !ok {
			t.Fatal("run finished before 100 events")
		}
		return data
	}
	for _, c := range []struct {
		name string
		data []byte
		into Params
		want string
	}{
		{"tag 0 into substreams", snapshotFixture(t, 3), gamma, "source tag 0 holds a task-stream source"},
		{"tag 1 into the task stream", snap(gamma), flag, "source tag 1 holds class substreams"},
		{"tag 2 into substreams", snap(flag), gamma, "source tag 2 holds a task-stream source"},
	} {
		_, err := RestoreSnapshot(c.into, c.data)
		if !errors.Is(err, snapshot.ErrCorrupt) || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want ErrCorrupt with %q", c.name, err, c.want)
		}
	}
}

// TestEncodeSnapshotRejectsBadStates pins the precondition errors.
func TestEncodeSnapshotRejectsBadStates(t *testing.T) {
	p := smallParams(10, 50, true)
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.EncodeSnapshot(); err == nil {
		t.Fatal("snapshot before Start accepted")
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EncodeSnapshot(); err == nil {
		t.Fatal("snapshot of a finished run accepted")
	}
}

// registryLayout locates the task registry in a core snapshot payload
// by decoding the sections ahead of it: countAt is the offset of the
// registry count and taskAt[i] that of entry i, with a final element
// marking the registry's end.
func registryLayout(tb testing.TB, payload []byte) (countAt int, taskAt []int) {
	tb.Helper()
	r := snapshot.NewReader(payload)
	at := func() int { return len(payload) - r.Remaining() }
	skipPosition(r)
	decodeCounters(r, &metrics.Counters{})
	for n := 6 * r.Count(); n > 0; n-- { // class accumulators
		r.I64()
	}
	r.Bool() // arrivals done
	r.I64()  // armed faults
	r.I64()  // pending retries
	r.Bool() // drain check queued
	countAt = at()
	n := r.Count()
	for i := 0; i < n; i++ {
		taskAt = append(taskAt, at())
		// encodeTask's 17 fields: varints, but for the ResolvedClosest bool.
		for f := 0; f < 17; f++ {
			if f == 15 {
				r.Bool()
			} else {
				r.I64()
			}
		}
	}
	taskAt = append(taskAt, at())
	if err := r.Err(); err != nil {
		tb.Fatal(err)
	}
	return countAt, taskAt
}

// skipPosition reads a payload's fingerprint and engine position, the
// sections ahead of the counters.
func skipPosition(r *snapshot.Reader) {
	r.U64()  // seed
	r.Bool() // partial
	r.Bool() // stream
	r.Int()  // nodes
	r.Int()  // configurations
	r.Str()  // policy
	r.Bool() // faults
	r.Bool() // dependencies
	r.Int()  // classes
	r.I64()  // clock
	r.U64()  // processed
	r.U64()  // next event sequence
}

// blockedSection returns the offset of the dependency-blocked count in
// a payload whose task registry ends at registryEnd: the run context's
// used-node flags, phase counters and terminal statuses come first.
func blockedSection(tb testing.TB, payload []byte, registryEnd int) int {
	tb.Helper()
	r := snapshot.NewReader(payload[registryEnd:])
	for n := r.Count(); n > 0; n-- {
		r.Bool()
	}
	for n := r.Count(); n > 0; n-- {
		r.I64()
	}
	for n := r.Count(); n > 0; n-- {
		r.Int()
	}
	if err := r.Err(); err != nil {
		tb.Fatal(err)
	}
	return len(payload) - r.Remaining()
}

// splice returns data with data[from:to] replaced by repl.
func splice(data []byte, from, to int, repl []byte) []byte {
	out := append([]byte(nil), data[:from]...)
	out = append(out, repl...)
	return append(out, data[to:]...)
}

// varint is the snapshot encoding of v.
func varint(v int) []byte { return binary.AppendVarint(nil, int64(v)) }

// malformedRegistries derives payloads whose task registry breaks the
// decoder's rules from a valid payload with at least two registry
// entries: entries out of order, a task number listed twice, a task
// resolved to configuration configs, one past the list, and a task
// that fails model.Task.Validate.
func malformedRegistries(tb testing.TB, payload []byte, configs int) []struct {
	name    string
	payload []byte
} {
	tb.Helper()
	_, taskAt := registryLayout(tb, payload)
	if len(taskAt) < 3 {
		tb.Fatalf("registry holds %d tasks, want at least 2", len(taskAt)-1)
	}
	first := payload[taskAt[0]:taskAt[1]]
	second := payload[taskAt[1]:taskAt[2]]
	swapped := append(append([]byte(nil), second...), first...)

	// Field 1 of an entry is its NeededArea, field 14 its resolved
	// configuration.
	field := func(f int) (from, to int) {
		r := snapshot.NewReader(first)
		for range f {
			r.I64()
		}
		from = taskAt[0] + len(first) - r.Remaining()
		r.I64()
		return from, taskAt[0] + len(first) - r.Remaining()
	}
	areaFrom, areaTo := field(1)
	from, to := field(14)

	return []struct {
		name    string
		payload []byte
	}{
		{"descending", splice(payload, taskAt[0], taskAt[2], swapped)},
		{"duplicate", splice(payload, taskAt[1], taskAt[2], first)},
		{"unknown-configuration", splice(payload, from, to, varint(configs))},
		{"zero-area", splice(payload, areaFrom, areaTo, varint(0))},
	}
}

// TestRestoreRejectsMalformedRegistry: the decoder requires strictly
// ascending task numbers and known configurations, and rejects
// anything else with ErrCorrupt. A version 2 registry also holds the
// suspended tasks, so the cases run on the version 2 fixture too;
// TestRestoreRejectsMalformedQueue covers the version 3 queue section
// that holds them now.
func TestRestoreRejectsMalformedRegistry(t *testing.T) {
	p := smallParams(10, 120, true)
	snap, ok := pauseAndSnapshot(t, p, 100)
	if !ok {
		t.Fatal("run too short")
	}
	for _, snap := range [][]byte{snap, snapshotFixture(t, 2)} {
		payload, version, err := snapshot.Open(snap, SnapshotKind, SnapshotVersion)
		if err != nil {
			t.Fatal(err)
		}
		for _, bad := range malformedRegistries(t, payload, p.Spec.Configs) {
			_, err := RestoreSnapshot(p, snapshot.Seal(SnapshotKind, version, bad.payload))
			if !errors.Is(err, snapshot.ErrCorrupt) {
				t.Errorf("version %d: %s registry gave %v, want ErrCorrupt", version, bad.name, err)
			}
		}
	}
}

// queueSection locates the suspension-queue section of a version 3
// payload that s encoded without a recorder: the count and the
// records, followed by the queue's peak and the pending events. It
// returns the offsets of the count and of the section's end, and
// copies of the queued tasks in FIFO order.
func queueSection(tb testing.TB, s *Simulator, payload []byte) (countAt, endAt int, queued []model.Task) {
	tb.Helper()
	var w snapshot.Writer
	s.encodeQueue(&w)
	evCount, _ := eventSection(tb, s, payload)
	endAt = evCount - len(varint(s.sus.Peak()))
	countAt = endAt - len(w.Bytes())
	if countAt < 0 || !bytes.Equal(payload[countAt:endAt], w.Bytes()) {
		tb.Fatal("suspension-queue section not found ahead of the pending events")
	}
	s.sus.Each(func(t *model.Task) { queued = append(queued, *t) })
	return countAt, endAt, queued
}

// encodeQueueSection encodes tasks as a version 3 suspension-queue
// section, in order.
func encodeQueueSection(tasks []model.Task) []byte {
	var w snapshot.Writer
	w.Int(len(tasks))
	var cur queueCursor
	for i := range tasks {
		encodeQueued(&w, &tasks[i], &cur)
	}
	return w.Bytes()
}

// malformedQueues derives version 3 payloads whose suspension queue
// breaks the decoder's rules from the payload of the paused run s,
// which must hold at least six queued tasks and a running one: a task
// number twice in the queue (in its ascending run, and as stragglers),
// a number in both the queue and the registry, an unknown flag bit,
// numbers outside [0, Spec.Tasks), an unknown resolved configuration,
// a task that fails model.Task.Validate, and a pending event or a node
// entry naming a queued task.
func malformedQueues(tb testing.TB, s *Simulator, payload []byte, p Params) []struct {
	name    string
	payload []byte
} {
	tb.Helper()
	countAt, endAt, queued := queueSection(tb, s, payload)
	if len(queued) < 6 {
		tb.Fatalf("queue holds %d tasks, want at least 6", len(queued))
	}
	type malformed = struct {
		name    string
		payload []byte
	}
	edit := func(name string, change func(q []model.Task)) malformed {
		q := slices.Clone(queued)
		change(q)
		return malformed{name, splice(payload, countAt, endAt, encodeQueueSection(q))}
	}
	// The registry's first task, and a number below the queue's first
	// that neither the queue nor the registry holds.
	_, taskAt := registryLayout(tb, payload)
	if len(taskAt) < 2 {
		tb.Fatal("registry is empty")
	}
	registered := snapshot.NewReader(payload[taskAt[0]:]).Int()
	free := -1
	for no := queued[0].No - 1; no >= 0 && free < 0; no-- {
		free = no
		for i := range len(taskAt) - 1 {
			if snapshot.NewReader(payload[taskAt[i]:]).Int() == no {
				free = -1
			}
		}
	}
	if registered >= queued[len(queued)-2].No || free < 0 {
		tb.Fatalf("registry starts at task %d, queue at %d: no straggler numbers to plant", registered, queued[0].No)
	}
	flags := bytes.Clone(payload)
	flags[countAt+len(varint(len(queued)))] |= 1 << 6

	// A completion event and a node entry retargeted at a queued task.
	var running *model.Task
	var entry *model.Entry
	for _, n := range s.mgr.Nodes() {
		for _, e := range n.Entries {
			if e.Task != nil {
				running, entry = e.Task, e
			}
		}
	}
	var target *model.Task
	s.sus.Each(func(t *model.Task) { target = t })
	evCount, evEnd := eventSection(tb, s, payload)
	var events snapshot.Writer
	pending := s.eng.Queue.Pending()
	events.Int(len(pending))
	for _, ev := range pending {
		if ev.A == running {
			ev.A = target
			defer func() { ev.A = running }()
		}
		if err := s.encodeEvent(&events, ev); err != nil {
			tb.Fatal(err)
		}
	}
	var fabric, retargeted snapshot.Writer
	s.mgr.EncodeState(&fabric)
	fabricAt := bytes.Index(payload, fabric.Bytes())
	if fabricAt < 0 || bytes.LastIndex(payload, fabric.Bytes()) != fabricAt {
		tb.Fatal("fabric section not found once in the payload")
	}
	entry.Task = target
	s.mgr.EncodeState(&retargeted)
	entry.Task = running

	return []malformed{
		edit("queued twice in a row", func(q []model.Task) { q[1].No = q[0].No }),
		edit("queued twice as a straggler", func(q []model.Task) { q[3].No = q[1].No }),
		edit("two stragglers", func(q []model.Task) { q[4].No, q[5].No = free, free }),
		edit("queued and registered", func(q []model.Task) { q[0].No = registered }),
		edit("registered straggler", func(q []model.Task) { q[len(q)-1].No = registered }),
		{"unknown flag bit", flags},
		edit("number past the run's tasks", func(q []model.Task) { q[2].No = p.Spec.Tasks }),
		edit("negative number", func(q []model.Task) { q[2].No = -1 }),
		edit("unknown configuration", func(q []model.Task) { q[0].Resolved = &model.Config{No: p.Spec.Configs} }),
		edit("negative required time", func(q []model.Task) { q[1].RequiredTime = -1 }),
		{"event naming a queued task", splice(payload, evCount, evEnd, events.Bytes())},
		{"node entry naming a queued task", splice(payload, fabricAt, fabricAt+len(fabric.Bytes()), retargeted.Bytes())},
	}
}

// TestRestoreRejectsMalformedQueue: a version 3 queue section may name
// each task number once across the queue and the registry, only within
// [0, Spec.Tasks), with known flag bits and configurations and valid
// tasks, and no other section may name a queued task; anything else is
// ErrCorrupt.
// The duplicate and unknown-configuration cases are the version 3
// twins of TestRestoreRejectsMalformedRegistry's, whose version 2
// registry held the suspended tasks. Each case is rejected for its own
// reason: restored with the edit undone, the payload is accepted.
func TestRestoreRejectsMalformedQueue(t *testing.T) {
	p := smallParams(10, 120, true)
	s, payload := pausedAt(t, p, 100)
	countAt, endAt, queued := queueSection(t, s, payload)
	intact := splice(payload, countAt, endAt, encodeQueueSection(queued))
	if _, err := RestoreSnapshot(p, snapshot.Seal(SnapshotKind, SnapshotVersion, intact)); err != nil {
		t.Fatalf("re-encoded queue section rejected: %v", err)
	}
	for _, bad := range malformedQueues(t, s, payload, p) {
		_, err := RestoreSnapshot(p, snapshot.Seal(SnapshotKind, SnapshotVersion, bad.payload))
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s gave %v, want ErrCorrupt", bad.name, err)
		} else {
			t.Logf("%s: %v", bad.name, err)
		}
	}
}

// TestRestoreRejectsUnconservedTasks: a payload that decodes cleanly
// but breaks task conservation — GeneratedTasks one above the tasks the
// snapshot accounts for — is rejected, not run.
func TestRestoreRejectsUnconservedTasks(t *testing.T) {
	p := smallParams(10, 120, true)
	_, payload := pausedAt(t, p, 100)
	r := snapshot.NewReader(payload)
	skipPosition(r)
	r.Int() // TotalNodes
	r.Int() // TotalConfigs
	at := len(payload) - r.Remaining()
	generated := r.I64()
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	bumped := splice(payload, at, len(payload)-r.Remaining(), varint(int(generated)+1))
	_, err := RestoreSnapshot(p, snapshot.Seal(SnapshotKind, SnapshotVersion, bumped))
	if !errors.Is(err, snapshot.ErrCorrupt) {
		t.Fatalf("GeneratedTasks %d -> %d gave %v, want ErrCorrupt", generated, generated+1, err)
	}
}

// TestCompletionPastClockFailsRun: a task whose completion tick would
// overflow the clock fails the run with an error instead of panicking,
// whether the workload drew its RequiredTime or a tampered checkpoint
// carried it in a queue record that is otherwise valid.
func TestCompletionPastClockFailsRun(t *testing.T) {
	p := smallParams(10, 50, true)
	p.Spec.TaskReqTimeLow, p.Spec.TaskReqTimeHigh = math.MaxInt64-5, math.MaxInt64-5
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err == nil {
		t.Fatal("a run whose tasks complete past the clock's range succeeded")
	}

	p = smallParams(10, 120, true)
	s, payload := pausedAt(t, p, 100)
	countAt, endAt, queued := queueSection(t, s, payload)
	queued[0].RequiredTime = math.MaxInt64 - 10
	r, err := RestoreSnapshot(p, snapshot.Seal(SnapshotKind, SnapshotVersion, splice(payload, countAt, endAt, encodeQueueSection(queued))))
	if err != nil {
		t.Fatal(err)
	}
	r.RunUntil(nil)
	if _, err := r.Finish(); err == nil {
		t.Fatal("a restored task completing past the clock's range finished cleanly")
	}
}

// eventSection locates the pending-event section of a payload that s
// encoded without a recorder: the event count and the events in queue
// order, closed by the recorder flag as the payload's last byte. It
// returns the offsets of the count and of the section's end.
func eventSection(tb testing.TB, s *Simulator, payload []byte) (countAt, endAt int) {
	tb.Helper()
	events := s.eng.Queue.Pending()
	var w snapshot.Writer
	w.Int(len(events))
	for _, ev := range events {
		if err := s.encodeEvent(&w, ev); err != nil {
			tb.Fatal(err)
		}
	}
	endAt = len(payload) - 1
	countAt = endAt - len(w.Bytes())
	if countAt < 0 || !bytes.Equal(payload[countAt:endAt], w.Bytes()) || payload[endAt] != 0 {
		tb.Fatal("pending-event section not found at the payload's tail")
	}
	return countAt, endAt
}

// hostilePayload is a tampered snapshot payload and the run parameters
// it is restored under.
type hostilePayload struct {
	name    string
	p       Params
	payload []byte
	// limit caps the bytes a restore may allocate before it fails;
	// zero means 10x the sealed snapshot's length.
	limit uint64
}

// pausedAt pauses a run of p once target events have fired and
// returns the run and its snapshot payload.
func pausedAt(tb testing.TB, p Params, target uint64) (*Simulator, []byte) {
	tb.Helper()
	s, err := New(p)
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Start(); err != nil {
		tb.Fatal(err)
	}
	if s.RunUntil(func(_ int64, processed uint64) bool { return processed >= target }) {
		tb.Fatalf("run finished before %d events", target)
	}
	snap, err := s.EncodeSnapshot()
	if err != nil {
		tb.Fatal(err)
	}
	payload, _, err := snapshot.Open(snap, SnapshotKind, SnapshotVersion)
	if err != nil {
		tb.Fatal(err)
	}
	return s, payload
}

// pausedPayload pauses a run of p with 8k queued tasks and returns the
// run and its snapshot payload.
func pausedPayload(t *testing.T, p Params) (*Simulator, []byte) {
	t.Helper()
	s := pausedRun(t, p, 8000)
	snap, err := s.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	payload, _, err := snapshot.Open(snap, SnapshotKind, SnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	return s, payload
}

// eventFlood appends n copies of one encoded event behind the genuine
// pending events of the paused run s.
func eventFlood(t *testing.T, name string, p Params, s *Simulator, payload []byte, ev []byte, n int) hostilePayload {
	t.Helper()
	evCount, evEnd := eventSection(t, s, payload)
	nev := len(s.eng.Queue.Pending())
	events := append(varint(nev+n), payload[evCount+len(varint(nev)):evEnd]...)
	events = append(events, bytes.Repeat(ev, n)...)
	return hostilePayload{name: name, p: p, payload: splice(payload, evCount, evEnd, events)}
}

// TestRestoreBoundsHostileRegistryCount: a tampered registry or queue
// count, a flood of pending events the restored gauges cannot account
// for, a task number far beyond the run's, or an inflated monitoring
// sample count is rejected with ErrCorrupt while the restore allocates
// less than ten times the snapshot's length. The registry counts are
// one far beyond what the payload can hold and the largest the minimum
// task size lets through; the queue counts are one far beyond, one
// just above and one exactly at what the minimum record size lets
// through, the last under its own ceiling of 24 times the bytes after
// the count. The floods are
// 100k events of one kind behind the genuine ones: drain-checks, where
// the gauges allow at most one, and, on a run with random and scripted
// faults, each kind of fault event, where each random stream allows
// one pending firing, the script bounds scripted crashes and armings,
// and recoveries are bounded by the script's and the down nodes. Task
// 1<<50 is named by the dependency-blocked section of a run without
// dependencies, and is a running task's number on the faulted run; the
// run context indexes both tables by task number. The sample count, 16
// short of the 1 MB of zeros behind it, passes a one-byte-per-sample
// bound but not the smallest sample's nine bytes.
func TestRestoreBoundsHostileRegistryCount(t *testing.T) {
	p := deepQueueParams()
	s, payload := pausedPayload(t, p)
	var inputs []hostilePayload
	countAt, taskAt := registryLayout(t, payload)
	remaining := len(payload) - taskAt[0] // bytes after the count
	for _, n := range []int{remaining - 16, remaining / minTaskBytes} {
		inputs = append(inputs, hostilePayload{
			name:    fmt.Sprintf("registry count %d", n),
			p:       p,
			payload: splice(payload, countAt, taskAt[0], varint(n)),
		})
	}
	// Queue counts the minimum record size rules out: one far beyond
	// what the payload can hold and one just above the bound. A count
	// exactly at the bound passes the check, and its slots are
	// allocated before the records run out: a minimum-size record backs
	// a 144-byte task and a 32-byte queue slot, so its ceiling is 24x
	// the bytes after the count, not 10x the snapshot.
	qCount, qEnd, queued := queueSection(t, s, payload)
	qRecords := qCount + len(varint(len(queued)))
	qRemaining := len(payload) - qRecords
	for _, n := range []int{qRemaining - 16, qRemaining/minQueuedBytes + 1, qRemaining / minQueuedBytes} {
		section := append(varint(n), payload[qRecords:qEnd]...)
		in := hostilePayload{name: fmt.Sprintf("queue count %d", n), p: p, payload: splice(payload, qCount, qEnd, section)}
		if n == qRemaining/minQueuedBytes {
			in.limit = 24 * uint64(qRemaining)
		}
		inputs = append(inputs, in)
	}
	const flood = 100000
	encode := func(kind int, at int64, node int) []byte {
		var w snapshot.Writer
		w.Int(kind)
		w.I64(at)
		if node >= 0 {
			w.Int(node)
		}
		return w.Bytes()
	}
	now := s.eng.Now()
	inputs = append(inputs, eventFlood(t, "drain-check flood", p, s, payload, encode(evDrainCheck, now+1, -1), flood))

	// The last registry task renumbered 1<<50 and named blocked. Splice
	// the later section first, so the earlier offsets hold.
	const farTask = 1 << 50
	last := taskAt[len(taskAt)-2]
	r := snapshot.NewReader(payload[last:])
	r.Int()
	noEnd := last + len(payload[last:]) - r.Remaining()
	blocked := blockedSection(t, payload, taskAt[len(taskAt)-1])
	if payload[blocked] != 0 {
		t.Fatalf("run without dependencies has a dependency-blocked count of %d", payload[blocked])
	}
	farBlocked := splice(payload, blocked, blocked+1, append(varint(1), varint(farTask)...))
	inputs = append(inputs, hostilePayload{name: "blocked task 1<<50", p: p, payload: splice(farBlocked, last, noEnd, varint(farTask))})

	// A plain recorder holding one sample, its count inflated.
	rp := deepQueueParams()
	rp.Recorder = monitor.NewRecorder(1 << 30)
	rs, rpayload := pausedPayload(t, rp)
	var rec snapshot.Writer
	if err := rs.params.Recorder.EncodeState(&rec); err != nil {
		t.Fatal(err)
	}
	hdr := snapshot.NewReader(rec.Bytes())
	hdr.Int()  // stride
	hdr.Int()  // classes
	hdr.Int()  // observations
	hdr.Bool() // windowed
	samplesAt := len(rpayload) - hdr.Remaining()
	if n := len(rs.params.Recorder.Samples()); n != 1 || !bytes.Equal(rpayload[samplesAt:samplesAt+1], varint(n)) {
		t.Fatalf("recorder section holds %d samples, want one", n)
	}
	const padding = 1 << 20
	inflated := append(varint(padding-16), make([]byte, padding)...)
	rp.Recorder = monitor.NewRecorder(1 << 30) // a fresh one to restore into
	inputs = append(inputs, hostilePayload{name: "sample count", p: rp, payload: splice(rpayload, samplesAt, len(rpayload), inflated)})

	fp := deepQueueParams()
	script, err := fault.ParseScript("crash@4000000:3,cfail@4000000,recover@4100000:3")
	if err != nil {
		t.Fatal(err)
	}
	fp.Faults = fault.Plan{CrashRate: 0.0002, MeanDowntime: 2000, ReconfigFaultRate: 0.0002, Script: script}
	fs, fpayload := pausedPayload(t, fp)
	now = fs.eng.Now()
	if now >= 4000000 {
		t.Fatalf("faulted run paused at %d, after its scripted events", now)
	}
	for _, f := range []struct {
		name string
		kind int
		node int
	}{
		{"scripted-crash", evCrashScripted, 1},
		{"random-crash", evCrashStream, -1},
		{"recovery", evRecover, 1},
		{"scripted-arming", evArmScripted, -1},
		{"random-arming", evArmStream, -1},
	} {
		inputs = append(inputs, eventFlood(t, f.name+" flood", fp, fs, fpayload, encode(f.kind, now+1, f.node), flood))
	}
	// Renumber a running task of the paused faulted run and encode it
	// again: its node entry and its completion event follow the number.
	// The run is not driven afterwards.
	var running *model.Task
	for _, n := range fs.mgr.Nodes() {
		for _, e := range n.Entries {
			if e.Task != nil {
				running = e.Task
			}
		}
	}
	if running == nil {
		t.Fatal("faulted run paused with no running task")
	}
	running.No = farTask
	far, err := fs.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	farPayload, _, err := snapshot.Open(far, SnapshotKind, SnapshotVersion)
	if err != nil {
		t.Fatal(err)
	}
	inputs = append(inputs, hostilePayload{name: "running task 1<<50", p: fp, payload: farPayload})

	for _, in := range inputs {
		bad := snapshot.Seal(SnapshotKind, SnapshotVersion, in.payload)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := RestoreSnapshot(in.p, bad)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s gave %v, want ErrCorrupt", in.name, err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d bytes allocated for a %d-byte snapshot (%.1fx)", in.name, got, len(bad), float64(got)/float64(len(bad)))
		limit := in.limit
		if limit == 0 {
			limit = 10 * uint64(len(bad))
		} else if invariant.RaceEnabled {
			continue // race instrumentation lifts the at-bound queue count to 28x
		}
		if got >= limit {
			t.Errorf("%s: restore allocated %d bytes for a %d-byte snapshot (limit %d)", in.name, got, len(bad), limit)
		}
	}
}

// TestMinTaskBytes pins the registry bound to the encoder: the smallest
// registry entry is minTaskBytes long.
func TestMinTaskBytes(t *testing.T) {
	var w snapshot.Writer
	encodeTask(&w, new(model.Task))
	if len(w.Bytes()) != minTaskBytes {
		t.Fatalf("smallest registry entry takes %d bytes, minTaskBytes is %d", len(w.Bytes()), minTaskBytes)
	}
}

// TestMinQueuedBytes pins the queue bound to the encoder: the smallest
// suspension-queue record is minQueuedBytes long.
func TestMinQueuedBytes(t *testing.T) {
	var w snapshot.Writer
	encodeQueued(&w, new(model.Task).Init(0, 0, 0, 0, 0), &queueCursor{})
	if len(w.Bytes()) != minQueuedBytes {
		t.Fatalf("smallest queue record takes %d bytes, minQueuedBytes is %d", len(w.Bytes()), minQueuedBytes)
	}
}

// TestSnapshotBytesShrink pins the version 3 saving on the encode
// benchmark's pause, 8k tasks deep: the version 2 encoder wrote
// 237,669 bytes there, and version 3 must write at most 60% of that.
func TestSnapshotBytesShrink(t *testing.T) {
	s := pausedRun(t, deepQueueParams(), 8000)
	snap, err := s.EncodeSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	const v2Bytes = 237669
	t.Logf("%d queued: %d bytes, %.1f%% of version 2's", s.sus.Len(), len(snap), 100*float64(len(snap))/v2Bytes)
	if limit := v2Bytes * 6 / 10; len(snap) > limit {
		t.Fatalf("snapshot takes %d bytes, limit %d", len(snap), limit)
	}
}

// FuzzQueueRecord: a suspension-queue record round-trips every task
// field exactly, and leaves the encoder's and the decoder's cursors
// equal, whatever the predecessor. The seeds cover every combination of
// the optional fields, the negative deltas of a straggler re-appended
// behind higher numbers, and extreme int64 values whose deltas wrap.
func FuzzQueueRecord(f *testing.F) {
	configs := []*model.Config{{No: 0}, {No: 1}, {No: 2}}
	// A seed: the predecessor's No, CreateTime and SusRetry, the task's
	// fields, and the resolved configuration's index (none beyond the
	// list).
	type seed struct {
		prevNo, prevCreate, prevRetry                             int64
		no, create, retry, needed, pref, data, required           int64
		class, retries, assigned, start, comm, cfgDelay, complete int64
		resolved                                                  uint8
		closest                                                   bool
	}
	add := func(s seed) {
		f.Add(s.prevNo, s.prevCreate, s.prevRetry, s.no, s.create, s.retry, s.needed, s.pref, s.data, s.required,
			s.class, s.retries, s.assigned, s.start, s.comm, s.cfgDelay, s.complete, s.resolved, s.closest)
	}
	fresh := seed{prevNo: 7, prevCreate: 100, prevRetry: 3, no: 8, create: 104, retry: 2, needed: 300, pref: 4,
		data: 9000, required: 1500, assigned: -1, start: -1, complete: -1, resolved: 1}
	for combo := 0; combo < 1<<6; combo++ {
		s := fresh
		on := func(bit int) bool { return combo&(1<<bit) != 0 }
		if !on(0) {
			s.resolved = uint8(len(configs))
		}
		s.closest = on(1)
		if on(2) {
			s.class = 3
		}
		if on(3) {
			s.retries = 2
		}
		if on(4) {
			s.assigned, s.start, s.comm, s.cfgDelay = 1, 120, 5, 40
		}
		if on(5) {
			s.complete = 900
		}
		add(s)
	}
	straggler := fresh
	straggler.prevNo, straggler.prevCreate, straggler.prevRetry = 9000, 5000, 40
	straggler.no, straggler.create, straggler.retry = 12, 300, 0
	add(straggler)
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	add(seed{hi, hi, hi, lo, lo, lo, lo, lo, lo, lo, lo, lo, lo, lo, lo, lo, lo, 0, true})
	add(seed{lo, lo, lo, hi, hi, hi, hi, hi, hi, hi, hi, hi, hi, hi, hi, hi, hi, 255, false})
	f.Fuzz(func(t *testing.T, prevNo, prevCreate, prevRetry, no, create, retry, needed, pref, data, required,
		class, retries, assigned, start, comm, cfgDelay, complete int64, resolved uint8, closest bool) {
		want := model.Task{
			No: int(no), CreateTime: create, SusRetry: retry, NeededArea: needed, PrefConfig: int(pref),
			Data: data, RequiredTime: required, Class: int(class), Retries: retries,
			AssignedConfig: int(assigned), StartTime: start, CommDelay: comm, ConfigDelay: cfgDelay,
			CompletionTime: complete, ResolvedClosest: closest, Status: model.TaskSuspended,
		}
		if int(resolved) < len(configs) {
			want.Resolved = configs[resolved]
		}
		enc := queueCursor{prevNo, prevCreate, prevRetry}
		dec := enc
		var w snapshot.Writer
		encodeQueued(&w, &want, &enc)
		r := snapshot.NewReader(w.Bytes())
		var got model.Task
		cfg, err := decodeQueued(r, &got, &dec)
		if err == nil {
			err = r.Close()
		}
		if err != nil {
			t.Fatalf("decoding %+v: %v", want, err)
		}
		if cfg >= 0 {
			if cfg >= len(configs) {
				t.Fatalf("decoded configuration %d of %d", cfg, len(configs))
			}
			got.Resolved = configs[cfg]
		}
		if got != want || dec != enc {
			t.Fatalf("round trip\nwant %+v, cursor %+v\ngot  %+v, cursor %+v", want, enc, got, dec)
		}
	})
}

// FuzzDecodeSnapshot: the decoder must never panic, whatever the
// bytes. Raw inputs exercise the envelope (the checksum rejects
// nearly everything); the re-sealed passes wrap the fuzzed bytes in a
// valid envelope of each format version so the payload decoding past
// the CRC is reached too.
// Every outcome must be a structured error or a well-formed restore.
func FuzzDecodeSnapshot(f *testing.F) {
	p := smallParams(10, 120, true)
	s, payload := pausedAt(f, p, 100)
	valid := snapshot.Seal(SnapshotKind, SnapshotVersion, payload)
	f.Add(valid)
	f.Add(append([]byte(nil), payload...))
	for _, bad := range malformedQueues(f, s, payload, p) {
		f.Add(bad.payload)
	}
	f.Add([]byte{})
	f.Add([]byte("DRSNAP"))
	truncated := append([]byte(nil), valid[:len(valid)/2]...)
	f.Add(truncated)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/3] ^= 0x10
	f.Add(flipped)
	for _, bad := range malformedRegistries(f, payload, p.Spec.Configs) {
		f.Add(bad.payload)
	}
	countAt, taskAt := registryLayout(f, payload)
	f.Add(splice(payload, countAt, taskAt[0], varint(len(payload)-taskAt[0])))
	for _, version := range []uint64{1, 2, 3} {
		old := snapshotFixture(f, version)
		f.Add(old)
		oldPayload, _, err := snapshot.Open(old, SnapshotKind, SnapshotVersion)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), oldPayload...))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if s, err := RestoreSnapshot(p, data); err == nil {
			// A decodable input must yield a drivable run.
			s.RunUntil(nil)
			s.Finish()
		}
		// Sealed as each version, the payload reaches version 1's skip
		// of the busy-list sections, the queue of task numbers versions
		// 1 and 2 share, and version 3's queue records.
		for _, version := range []uint64{1, 2, 3} {
			sealed := snapshot.Seal(SnapshotKind, version, data)
			if s, err := RestoreSnapshot(p, sealed); err == nil {
				s.RunUntil(nil)
				s.Finish()
			}
		}
	})
}
