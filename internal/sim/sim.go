// Package sim provides the discrete simulation-time substrate of
// DReAMSim: the timetick clock (paper §IV-C, IncreaseTimeTick, Eq. 5)
// and a deterministic future-event queue.
//
// The paper advances time in unit "timeticks". The Engine jumps from
// one pending event's tick to the next, which fires the same events at
// the same ticks as the paper's literal tick-by-tick loop.
//
// Because every event time is an integer tick and the engine pops
// them in non-decreasing order, the queue is a 64-way radix heap
// (Ahuja, Mehlhorn, Orlin and Tarjan, 1990): intrusive FIFO lists
// filed by the 6-bit digit in which an event's time first differs from
// a lower bound of the pending times, 64 lists to a level. An event is
// relinked at most once per level it moves down, so a completion 100
// to 100,000 ticks out is relinked once or twice before it fires.
//
// Every event carries a pre-bound Handler with its payload in the A/B
// slots; that is the only form a checkpoint can encode, since a
// closure's captured state cannot be serialized.
//
// Allocation discipline: the Queue owns a free list of Event structs.
// ScheduleEvent draws from it, the Engine returns an event to it after
// firing, Remove returns cancelled events to it, and Reset recycles a
// whole run's pending events. The buckets link the events themselves,
// so the queue owns no backing array. Steady-state event traffic
// therefore allocates nothing. The ownership contract: an *Event
// handle is valid from scheduling until its callback returns or
// Remove succeeds; after that the struct may be recycled for an
// unrelated event and must not be touched. Under -tags invariants
// freed events are poisoned so a stale handle fails loudly instead of
// corrupting a live event.
package sim

import (
	"fmt"
	"math/bits"

	"dreamsim/internal/invariant"
)

// Time is a point in simulated time, measured in timeticks. The paper
// uses `long long int` timeticks; int64 matches.
type Time = int64

// Clock tracks current simulated time. The zero value starts at tick 0.
type Clock struct {
	now Time
}

// Now returns the current timetick.
func (c *Clock) Now() Time { return c.now }

// IncreaseTimeTick advances the clock by one tick and returns the new
// time (paper method name; the Engine jumps over empty ticks with
// AdvanceTo instead).
//
//lint:deadexport (b) paper-named API: the clock's IncreaseTimeTick of §IV-C
func (c *Clock) IncreaseTimeTick() Time {
	c.now++
	return c.now
}

// AdvanceTo moves the clock forward to t. It panics if t is in the
// past: simulation time is monotone.
func (c *Clock) AdvanceTo(t Time) {
	if t < c.now {
		panic(fmt.Sprintf("sim: clock moving backwards: %d -> %d", c.now, t))
	}
	c.now = t
}

// Handler is the allocation-free event callback: the queue hands the
// event back so payloads travel in its A/B slots instead of a fresh
// closure per event.
type Handler func(ev *Event, now Time)

// freedIndex marks an event sitting on the free list. Live events use
// index >= 0 (queued) or -1 (not queued).
const freedIndex = -2

// poisonedAt is written into freed events under -tags invariants, so
// a read through a stale handle sees an impossible time instead of a
// plausible one.
const poisonedAt Time = -1 << 62

// FreedKind labels pooled events under -tags invariants.
const FreedKind = "sim:freed"

// Event is a scheduled occurrence. Events at the same timetick fire
// in scheduling order (FIFO), which keeps runs deterministic.
//
// Handle must be set. A and B are opaque payload slots for it (store
// pointers — pointer-shaped values in an interface do not allocate).
type Event struct {
	At Time

	// The fields a bucket walk reads sit next to At, so one cache line
	// holds them all.
	next, prev *Event // bucket list links while queued; a head's prev is its list's tail
	index      int    // bucket number while queued; -1 not queued; -2 on the free list

	Kind string // diagnostic label, e.g. "arrival", "completion"

	Handle Handler
	A, B   any

	seq uint64 // insertion order; snapshots and CheckInvariants read it
}

// The radix heap files events by 6-bit digits of the order-preserving
// key uint64(At)^1<<63. Level l holds the events whose key first
// differs from base's in digit l (bits 6l to 6l+5), one bucket per
// value of that digit; bucket (l, d) is heads[l<<digitBits|d]. The
// top level's digit has only the key's last four bits, so it needs 16
// buckets, not 64.
const (
	digitBits = 6
	digits    = 1 << digitBits
	levels    = (64 + digitBits - 1) / digitBits
	nbuckets  = (levels-1)*digits + 1<<(64-(levels-1)*digitBits)
)

// Queue holds future events and pops them in (At, insertion order).
// The zero value is ready to use.
//
// It is a 64-way radix heap. base lies at or below every pending time.
// An event at t sits at level l = ⌊(bits.Len64(key(t)^key(base))−1)/6⌋
// (level 0 when t == base), in the bucket of key(t)'s digit l. Level 0
// is base's aligned 64-tick window, one tick per bucket; every event
// at level l is earlier than every event at a higher level, and within
// a level the buckets run in digit order. So the earliest event heads
// the lowest non-empty level-0 bucket. mask[l] bit d is set while
// bucket (l, d) is non-empty, and levelMask bit l while mask[l] is
// non-zero.
//
// Each bucket is a FIFO list threaded through the events' next links
// and ending in nil. Its head's prev names its tail, so a bucket costs
// one pointer, and appending and unlinking stay O(1). Same-tick events
// keep insertion order without comparing seq: equal times always share
// a bucket, and a bucket list is only appended to or relinked in list
// order.
type Queue struct {
	heads     [nbuckets]*Event
	mask      [levels]uint64
	levelMask uint64
	base      Time
	n         int
	nextSeq   uint64

	// free holds recycled Event structs for reuse by ScheduleEvent.
	free []*Event

	// lastPopped backs the -tags invariants monotonicity assertion:
	// the queue must never emit an event earlier than one it already
	// emitted.
	lastPopped Time
}

// Len reports the number of pending events.
func (q *Queue) Len() int { return q.n }

// bucketOf returns the bucket an event at t belongs in for the current
// base. The sign flips cancel in the XOR, so the level reads the raw
// bits; only the top level's digit holds the flipped sign bit.
func (q *Queue) bucketOf(t Time) int {
	l := (bits.Len64(uint64(t^q.base)|1) - 1) / digitBits
	shift := uint(l * digitBits)
	return l<<digitBits | int((uint64(t)^1<<63)>>shift&(digits-1))
}

// queued reports whether ev is linked into one of q's buckets: every
// queued event has a prev, a head its own tail (itself when alone).
func (q *Queue) queued(ev *Event) bool {
	return ev.index >= 0 && ev.prev != nil
}

// link appends ev to the tail of bucket i.
func (q *Queue) link(ev *Event, i int) {
	h := q.heads[i]
	ev.index = i
	ev.next = nil
	if h == nil {
		q.heads[i] = ev
		ev.prev = ev
		q.mask[i>>digitBits] |= 1 << uint(i&(digits-1))
		q.levelMask |= 1 << uint(i>>digitBits)
		return
	}
	tail := h.prev
	tail.next = ev
	ev.prev = tail
	h.prev = ev
}

// unlink takes queued ev out of its bucket in O(1).
func (q *Queue) unlink(ev *Event) {
	i := ev.index
	h := q.heads[i]
	switch {
	case ev == h:
		q.heads[i] = ev.next
		if ev.next == nil {
			q.clearBit(i)
		} else {
			ev.next.prev = ev.prev
		}
	case ev.next == nil: // the tail
		ev.prev.next = nil
		h.prev = ev.prev
	default:
		ev.prev.next = ev.next
		ev.next.prev = ev.prev
	}
	ev.next, ev.prev = nil, nil
	ev.index = -1
	q.n--
}

// clearBit clears bucket i's mask bit, and its level's bit once the
// level is empty.
func (q *Queue) clearBit(i int) {
	l := i >> digitBits
	q.mask[l] &^= 1 << uint(i&(digits-1))
	if q.mask[l] == 0 {
		q.levelMask &^= 1 << uint(l)
	}
}

// fill makes level 0 non-empty; the caller guarantees the queue is
// not empty. While it is empty, the lowest non-empty bucket (l, d)
// holds the earliest events. base moves up to the lowest time that
// bucket can hold, which lies at or below all of them, and its events
// are relinked, in list order, into levels below l: they now first
// differ from base below digit l. Every other bucket keeps its level
// and digit, since the new base agrees with the old one above digit l
// and with each of them in digit l.
func (q *Queue) fill() {
	for q.mask[0] == 0 {
		l := bits.TrailingZeros64(q.levelMask)
		d := bits.TrailingZeros64(q.mask[l])
		i := l<<digitBits | d
		ev := q.heads[i]
		q.heads[i] = nil
		q.clearBit(i)
		shift := uint(l * digitBits)
		k := (uint64(q.base)^1<<63)>>(shift+digitBits)<<(shift+digitBits) | uint64(d)<<shift
		q.base = Time(k ^ 1<<63)
		q.relink(ev)
	}
}

// relink files each event of a detached list, from ev on, into its
// bucket for the current base, in list order.
func (q *Queue) relink(ev *Event) {
	for ev != nil {
		next := ev.next
		q.link(ev, q.bucketOf(ev.At))
		ev = next
	}
}

// rebase lowers base to t, below the current base, without
// allocating. If t first differs from base in digit j, every event
// below level j agrees with base from digit j up, so under t all of
// them belong in one level-j bucket, the one of base's digit j; they
// merge into it in level and digit order, which is time order. That
// bucket is empty: its events would have to lie below the old base.
// Events at level j and above keep their buckets. A push lands below
// base when a caller schedules at the current tick after a PeekTime
// has moved base up to a later bucket.
func (q *Queue) rebase(t Time) {
	j := q.bucketOf(t) >> digitBits
	q.base = t
	for l := 0; l < j; l++ {
		m := q.mask[l]
		q.mask[l] = 0
		for ; m != 0; m &= m - 1 {
			i := l<<digitBits | bits.TrailingZeros64(m)
			ev := q.heads[i]
			q.heads[i] = nil
			q.relink(ev)
		}
	}
	q.levelMask &^= 1<<uint(j) - 1
}

// alloc returns a zeroed Event from the free list, or a fresh one.
func (q *Queue) alloc() *Event {
	n := len(q.free)
	if n == 0 {
		return &Event{index: -1}
	}
	ev := q.free[n-1]
	q.free[n-1] = nil
	q.free = q.free[:n-1]
	*ev = Event{index: -1}
	return ev
}

// release puts ev on the free list. Double release is a no-op in
// normal builds (asserted under -tags invariants) so that the free
// list can never hold the same struct twice.
func (q *Queue) release(ev *Event) {
	if ev.index == freedIndex {
		if invariant.Enabled {
			invariant.Assertf(false, "sim: double release of event %q", ev.Kind)
		}
		return
	}
	ev.Handle = nil
	ev.A, ev.B = nil, nil
	ev.next, ev.prev = nil, nil
	if invariant.Enabled {
		ev.At = poisonedAt
		ev.Kind = FreedKind
	}
	ev.index = freedIndex
	q.free = append(q.free, ev)
}

// Release returns an event to the pool once the caller is done with
// it — typically after Pop in a manual drain loop. Releasing a queued
// event panics; cancel with Remove instead (which releases itself).
//
//lint:deadexport (c) test support: perf-smoke's BenchmarkQueuePushPop 0-alloc gate drains the queue through it
func (q *Queue) Release(ev *Event) {
	if q.queued(ev) {
		panic("sim: releasing queued event")
	}
	q.release(ev)
}

// Push schedules ev. It panics if the event is already queued, was
// freed, or has no Handle.
func (q *Queue) Push(ev *Event) {
	if ev.Handle == nil {
		panic("sim: event with nil Handle")
	}
	if ev.index == freedIndex {
		panic("sim: pushing freed event")
	}
	if q.queued(ev) {
		panic("sim: event already queued")
	}
	ev.seq = q.nextSeq
	q.nextSeq++
	if ev.At < q.base {
		q.rebase(ev.At)
	}
	q.link(ev, q.bucketOf(ev.At))
	q.n++
}

// ScheduleEvent queues a Handler callback with its payload, drawing
// the Event from the pool. This is the allocation-free path: with a
// pre-bound Handler and pointer payloads, steady-state scheduling
// performs no heap allocation.
func (q *Queue) ScheduleEvent(at Time, kind string, h Handler, a, b any) *Event {
	ev := q.alloc()
	ev.At, ev.Kind, ev.Handle = at, kind, h
	ev.A, ev.B = a, b
	q.Push(ev)
	return ev
}

// PeekTime returns the timestamp of the earliest pending event; ok is
// false when the queue is empty.
func (q *Queue) PeekTime() (t Time, ok bool) {
	if q.levelMask == 0 {
		return 0, false
	}
	q.fill()
	return q.base&^(digits-1) | Time(bits.TrailingZeros64(q.mask[0])), true
}

// Pop removes and returns the earliest pending event (ties broken by
// insertion order). It returns nil when the queue is empty. The
// caller owns the event until it calls Release (the Engine does this
// automatically after firing).
func (q *Queue) Pop() *Event {
	if q.levelMask == 0 {
		return nil
	}
	q.fill()
	ev := q.heads[bits.TrailingZeros64(q.mask[0])]
	if invariant.Enabled {
		invariant.Assertf(ev.At >= q.lastPopped,
			"sim: event queue popped tick %d after tick %d — simulated time must be monotone",
			ev.At, q.lastPopped)
		q.lastPopped = ev.At
	}
	q.unlink(ev)
	return ev
}

// Remove cancels a queued event and returns its memory to the pool.
// It reports whether the event was actually pending. The handle is
// dead after a successful Remove.
func (q *Queue) Remove(ev *Event) bool {
	if !q.queued(ev) {
		return false
	}
	q.unlink(ev)
	q.release(ev)
	return true
}

// Reset discards all pending events, recycling them and keeping the
// free list, so the next run reuses the same memory. Sequence
// numbering restarts so FIFO-within-tick ordering is reproduced
// exactly across runs.
func (q *Queue) Reset() {
	for ; q.levelMask != 0; q.levelMask &= q.levelMask - 1 {
		l := bits.TrailingZeros64(q.levelMask)
		for m := q.mask[l]; m != 0; m &= m - 1 {
			i := l<<digitBits | bits.TrailingZeros64(m)
			for ev := q.heads[i]; ev != nil; {
				next := ev.next
				q.release(ev)
				ev = next
			}
			q.heads[i] = nil
		}
		q.mask[l] = 0
	}
	q.base, q.n, q.nextSeq, q.lastPopped = 0, 0, 0, 0
}

// CheckInvariants validates the radix heap (see CheckStructure) and
// that equal-time events appear in ascending insertion order. It walks
// every queued event and allocates; Debug runs call it.
func (q *Queue) CheckInvariants() error {
	return q.check(true)
}

// CheckStructure validates the radix heap without allocating: each
// queued event sits in bucketOf(At) for the current base (so it lies
// at or above base), the masks match the non-empty buckets and
// levels, every back link mirrors a forward link, each head's prev
// names its tail, each index names its bucket and Len equals the
// linked count.
func (q *Queue) CheckStructure() error {
	return q.check(false)
}

// check is CheckInvariants, or CheckStructure without sameTick.
func (q *Queue) check(sameTick bool) error {
	n := 0
	var lastSeq map[Time]uint64
	if sameTick {
		lastSeq = make(map[Time]uint64)
	}
	for l := range q.mask {
		if (q.mask[l] != 0) != (q.levelMask&(1<<uint(l)) != 0) {
			return fmt.Errorf("sim: event queue level mask bit of level %d is stale", l)
		}
	}
	if q.levelMask>>levels != 0 || q.mask[levels-1]>>(nbuckets-(levels-1)*digits) != 0 {
		return fmt.Errorf("sim: event queue masks name buckets past the top level's %d", nbuckets-(levels-1)*digits)
	}
	for i, h := range q.heads {
		if (h != nil) != (q.mask[i>>digitBits]&(1<<uint(i&(digits-1))) != 0) {
			return fmt.Errorf("sim: event queue mask bit of bucket (%d, %d) is stale", i>>digitBits, i&(digits-1))
		}
		var prev *Event
		for ev := h; ev != nil; prev, ev = ev, ev.next {
			if n++; n > q.n {
				return fmt.Errorf("sim: event queue links more than its %d events", q.n)
			}
			if ev != h && ev.prev != prev {
				return fmt.Errorf("sim: event %q at %d has a broken back link in bucket %d", ev.Kind, ev.At, i)
			}
			if ev.index != i {
				return fmt.Errorf("sim: event %q at %d in bucket %d has index %d", ev.Kind, ev.At, i, ev.index)
			}
			if ev.At < q.base || q.bucketOf(ev.At) != i {
				return fmt.Errorf("sim: event %q at %d filed in bucket (%d, %d) under base %d", ev.Kind, ev.At, i>>digitBits, i&(digits-1), q.base)
			}
			if sameTick {
				if s, ok := lastSeq[ev.At]; ok && ev.seq <= s {
					return fmt.Errorf("sim: events at %d out of insertion order", ev.At)
				}
				lastSeq[ev.At] = ev.seq
			}
		}
		if h != nil && h.prev != prev {
			return fmt.Errorf("sim: event queue bucket %d tail mismatch", i)
		}
	}
	if n != q.n {
		return fmt.Errorf("sim: event queue Len %d, linked %d", q.n, n)
	}
	return nil
}

// Engine couples a Clock with a Queue and fires events in time order,
// one Step at a time; the clock jumps straight to each event's tick.
type Engine struct {
	Clock Clock
	Queue Queue

	processed uint64
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.Clock.Now() }

// Reset rewinds the engine to its initial state — clock at tick 0, no
// pending events — while keeping the queue's event pool for reuse by
// the next run.
func (e *Engine) Reset() {
	e.Queue.Reset()
	e.Clock = Clock{}
	e.processed = 0
}

// ScheduleEventAt queues h with its payload to run at absolute time
// at. Scheduling in the past panics: causality must hold.
func (e *Engine) ScheduleEventAt(at Time, kind string, h Handler, a, b any) *Event {
	if at < e.Clock.Now() {
		panic(fmt.Sprintf("sim: scheduling %q at %d before now %d", kind, at, e.Clock.Now()))
	}
	return e.Queue.ScheduleEvent(at, kind, h, a, b)
}

// ScheduleEventAfter queues h with its payload to run delay ticks
// from now.
func (e *Engine) ScheduleEventAfter(delay Time, kind string, h Handler, a, b any) *Event {
	if delay < 0 {
		panic("sim: negative delay")
	}
	return e.Queue.ScheduleEvent(e.Clock.Now()+delay, kind, h, a, b)
}

// Processed reports how many events have fired so far.
func (e *Engine) Processed() uint64 { return e.processed }

// fire invokes ev's callback and recycles the event unless the
// callback re-queued it (periodic events re-Push themselves from
// inside their own firing).
func (e *Engine) fire(ev *Event) {
	e.processed++
	ev.Handle(ev, ev.At)
	if ev.index == -1 {
		e.Queue.release(ev)
	}
}

// Step fires the single earliest event (advancing the clock to it)
// and reports whether an event was available.
func (e *Engine) Step() bool {
	ev := e.Queue.Pop()
	if ev == nil {
		return false
	}
	e.Clock.AdvanceTo(ev.At)
	e.fire(ev)
	return true
}
