// Package sim provides the discrete simulation-time substrate of
// DReAMSim: the timetick clock (paper §IV-C, IncreaseTimeTick, Eq. 5)
// and a deterministic future-event queue.
//
// The paper advances time in unit "timeticks". The Engine jumps from
// one pending event's tick to the next, which fires the same events at
// the same ticks as the paper's literal tick-by-tick loop.
//
// Because every event time is an integer tick and the engine pops
// them in non-decreasing order, the queue is a radix heap (Ahuja,
// Mehlhorn, Orlin and Tarjan, 1990): 65 buckets of intrusive FIFO
// lists keyed by the highest bit in which an event's time differs
// from the earliest pending time, amortized O(1) per event.
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
	next, prev *Event // bucket list links while queued
	index      int    // bucket number while queued; -1 not queued; -2 on the free list

	Kind string // diagnostic label, e.g. "arrival", "completion"

	Handle Handler
	A, B   any

	seq uint64 // insertion order; snapshots and CheckInvariants read it
}

// bucket is one FIFO list of the radix heap.
type bucket struct {
	head, tail *Event
}

// Queue holds future events and pops them in (At, insertion order).
// The zero value is ready to use.
//
// It is a radix heap over the order-preserving key uint64(At)^1<<63.
// base lies at or below every pending time, and is the earliest one
// once Pop or PeekTime settles. An event sits in bucket
// bits.Len64(key(At)^key(base)), so bucket 0 holds exactly the events
// at base and every event in bucket i is earlier than every event in
// bucket i+1. The sign flips cancel in the XOR, which is why
// bucketOf reads the raw bits. mask bit i-1 is set while bucket i
// (i >= 1) is non-empty.
//
// Same-tick events keep insertion order without comparing seq: equal
// times always share a bucket, and a bucket list is only appended to
// or relinked in list order.
type Queue struct {
	buckets [65]bucket
	mask    uint64
	base    Time
	n       int
	nextSeq uint64

	// free holds recycled Event structs for reuse by ScheduleEvent.
	free []*Event

	// lastPopped backs the -tags invariants monotonicity assertion:
	// the queue must never emit an event earlier than one it already
	// emitted.
	lastPopped Time
}

// Len reports the number of pending events.
//
//dreamsim:noalloc
func (q *Queue) Len() int { return q.n }

// bucketOf returns the bucket an event at t belongs in for the current
// base.
func (q *Queue) bucketOf(t Time) int {
	return bits.Len64(uint64(t ^ q.base))
}

// bit returns bucket i's mask bit. Bucket 0 has none: uint(i-1)
// wraps, and a shift that wide yields 0.
func bit(i int) uint64 { return 1 << uint(i-1) }

// queued reports whether ev is linked into one of q's buckets. A
// zero-value Event (index 0) is not, unless it heads bucket 0.
func (q *Queue) queued(ev *Event) bool {
	i := ev.index
	return i >= 0 && (ev.prev != nil || q.buckets[i].head == ev)
}

// link appends ev to the tail of bucket i.
func (q *Queue) link(ev *Event, i int) {
	b := &q.buckets[i]
	ev.index = i
	ev.next = nil
	ev.prev = b.tail
	if b.tail == nil {
		b.head = ev
		q.mask |= bit(i)
	} else {
		b.tail.next = ev
	}
	b.tail = ev
}

// unlink takes queued ev out of its bucket in O(1).
func (q *Queue) unlink(ev *Event) {
	i := ev.index
	b := &q.buckets[i]
	if ev.prev == nil {
		b.head = ev.next
	} else {
		ev.prev.next = ev.next
	}
	if ev.next == nil {
		b.tail = ev.prev
	} else {
		ev.next.prev = ev.prev
	}
	if b.head == nil {
		q.mask &^= bit(i)
	}
	ev.next, ev.prev = nil, nil
	ev.index = -1
	q.n--
}

// settle refills the empty bucket 0: base moves to the minimum time of
// the lowest non-empty bucket, whose events are relinked, in list
// order, into the buckets below it. Those are all empty, and every
// higher bucket keeps its number under the new base. The caller
// guarantees bucket 0 is empty and the queue is not.
func (q *Queue) settle() {
	i := bits.TrailingZeros64(q.mask) + 1
	b := q.buckets[i]
	q.buckets[i] = bucket{}
	q.mask &^= bit(i)
	lo := b.head.At
	for ev := b.head.next; ev != nil; ev = ev.next {
		lo = min(lo, ev.At)
	}
	q.base = lo
	q.relink(b.head)
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
// allocating. With j = bucketOf(t), the events of the buckets below j
// all belong in bucket j under t, so those buckets merge into it in
// order; higher buckets keep their events. Bucket j itself is empty:
// its events would have to lie below the old base. A push lands below
// base when a caller schedules at the current tick after a PeekTime
// has settled base on a later one.
func (q *Queue) rebase(t Time) {
	j := q.bucketOf(t)
	q.base = t
	for i := 0; i < j; i++ {
		ev := q.buckets[i].head
		q.buckets[i] = bucket{}
		q.relink(ev)
	}
	q.mask &^= bit(j) - 1
}

// alloc returns a zeroed Event from the free list, or a fresh one.
func (q *Queue) alloc() *Event {
	n := len(q.free)
	if n == 0 {
		//lint:allocfree pool miss: one Event per pool high-water mark, amortized to zero in steady state (gated by TestQueuePushPopZeroAlloc)
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
//dreamsim:noalloc
//lint:deadexport (c) test support: perf-smoke's BenchmarkQueuePushPop 0-alloc gate drains the queue through it
func (q *Queue) Release(ev *Event) {
	if q.queued(ev) {
		panic("sim: releasing queued event")
	}
	q.release(ev)
}

// Push schedules ev. It panics if the event is already queued, was
// freed, or has no Handle.
//
//dreamsim:noalloc
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
//
//dreamsim:noalloc
func (q *Queue) ScheduleEvent(at Time, kind string, h Handler, a, b any) *Event {
	ev := q.alloc()
	ev.At, ev.Kind, ev.Handle = at, kind, h
	ev.A, ev.B = a, b
	q.Push(ev)
	return ev
}

// PeekTime returns the timestamp of the earliest pending event; ok is
// false when the queue is empty.
//
//dreamsim:noalloc
func (q *Queue) PeekTime() (t Time, ok bool) {
	if q.buckets[0].head == nil {
		if q.mask == 0 {
			return 0, false
		}
		q.settle()
	}
	return q.base, true
}

// Pop removes and returns the earliest pending event (ties broken by
// insertion order). It returns nil when the queue is empty. The
// caller owns the event until it calls Release (the Engine does this
// automatically after firing).
//
//dreamsim:noalloc
func (q *Queue) Pop() *Event {
	if q.buckets[0].head == nil {
		if q.mask == 0 {
			return nil
		}
		q.settle()
	}
	ev := q.buckets[0].head
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
//
//dreamsim:noalloc
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
//
//dreamsim:noalloc
func (q *Queue) Reset() {
	for i := range q.buckets {
		for ev := q.buckets[i].head; ev != nil; {
			next := ev.next
			q.release(ev)
			ev = next
		}
	}
	free := q.free
	*q = Queue{free: free}
}

// CheckInvariants validates the radix heap (see CheckStructure) and
// that equal-time events appear in ascending insertion order. It walks
// every queued event and allocates; Debug runs call it.
func (q *Queue) CheckInvariants() error {
	return q.check(true)
}

// CheckStructure validates the radix heap without allocating: each
// queued event sits in bucketOf(At) for the current base (so bucket 0
// holds only events at base), mask matches the non-empty buckets,
// every back link mirrors a forward link, each index names its bucket
// and Len equals the linked count.
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
	for i := range q.buckets {
		b := &q.buckets[i]
		if i > 0 && (b.head != nil) != (q.mask&bit(i) != 0) {
			return fmt.Errorf("sim: event queue mask bit of bucket %d is stale", i)
		}
		var prev *Event
		for ev := b.head; ev != nil; prev, ev = ev, ev.next {
			if n++; n > q.n {
				return fmt.Errorf("sim: event queue links more than its %d events", q.n)
			}
			if ev.prev != prev {
				return fmt.Errorf("sim: event %q at %d has a broken back link in bucket %d", ev.Kind, ev.At, i)
			}
			if ev.index != i {
				return fmt.Errorf("sim: event %q at %d in bucket %d has index %d", ev.Kind, ev.At, i, ev.index)
			}
			if ev.At < q.base || q.bucketOf(ev.At) != i {
				return fmt.Errorf("sim: event %q at %d filed in bucket %d under base %d", ev.Kind, ev.At, i, q.base)
			}
			if sameTick {
				if s, ok := lastSeq[ev.At]; ok && ev.seq <= s {
					return fmt.Errorf("sim: events at %d out of insertion order", ev.At)
				}
				lastSeq[ev.At] = ev.seq
			}
		}
		if b.tail != prev {
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
//
//dreamsim:noalloc
func (e *Engine) ScheduleEventAt(at Time, kind string, h Handler, a, b any) *Event {
	if at < e.Clock.Now() {
		panic(fmt.Sprintf("sim: scheduling %q at %d before now %d", kind, at, e.Clock.Now()))
	}
	return e.Queue.ScheduleEvent(at, kind, h, a, b)
}

// ScheduleEventAfter queues h with its payload to run delay ticks
// from now.
//
//dreamsim:noalloc
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
	//lint:allocfree dynamic dispatch: the callback's allocation discipline is the scheduling site's contract; TestTickZeroAlloc gates the closed loop at runtime
	ev.Handle(ev, ev.At)
	if ev.index == -1 {
		e.Queue.release(ev)
	}
}

// Step fires the single earliest event (advancing the clock to it)
// and reports whether an event was available.
//
//dreamsim:noalloc
func (e *Engine) Step() bool {
	ev := e.Queue.Pop()
	if ev == nil {
		return false
	}
	e.Clock.AdvanceTo(ev.At)
	e.fire(ev)
	return true
}
