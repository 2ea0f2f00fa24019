// Package sim provides the discrete simulation-time substrate of
// DReAMSim: the timetick clock (paper §IV-C, IncreaseTimeTick /
// DecreaseTimeTick, Eq. 5) and a deterministic future-event queue.
//
// The paper advances time in unit "timeticks". A literal
// tick-by-tick loop and an event-jumping loop produce identical
// simulated results; the engine supports both (the core simulator
// jumps to the next scheduled event by default and can be forced to
// step tick-by-tick for the paper-faithful ablation).
//
// Every event carries a pre-bound Handler with its payload in the A/B
// slots; that is the only form a checkpoint can encode, since a
// closure's captured state cannot be serialized.
//
// Allocation discipline: the Queue owns a free list of Event structs.
// ScheduleEvent draws from it, the Engine returns an event to it after
// firing, Remove returns cancelled events to it, and Reset recycles a
// whole run's pending events while keeping the heap's backing slice.
// Steady-state event traffic therefore allocates nothing. The
// ownership contract: an *Event handle is valid from scheduling until
// its callback returns or Remove succeeds; after that the struct may
// be recycled for an unrelated event and must not be touched. Under
// -tags invariants freed events are poisoned so a stale handle fails
// loudly instead of corrupting a live event.
package sim

import (
	"fmt"

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
// time (paper method name).
func (c *Clock) IncreaseTimeTick() Time {
	c.now++
	return c.now
}

// DecreaseTimeTick rewinds the clock by one tick (paper method name;
// used only by tooling/tests — the simulator itself never rewinds).
func (c *Clock) DecreaseTimeTick() Time {
	c.now--
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

// poisonedAt is written into freed events under -tags invariants; any
// heap comparison against a stale handle then trips the monotonicity
// assertion instead of silently reordering live events.
const poisonedAt Time = -1 << 62

// FreedKind labels pooled events under -tags invariants.
const FreedKind = "sim:freed"

// Event is a scheduled occurrence. Events at the same timetick fire
// in scheduling order (FIFO), which keeps runs deterministic.
//
// Handle must be set. A and B are opaque payload slots for it (store
// pointers — pointer-shaped values in an interface do not allocate).
type Event struct {
	At   Time
	Kind string // diagnostic label, e.g. "arrival", "completion"

	Handle Handler
	A, B   any

	seq   uint64 // tie-breaker: insertion order
	index int    // heap position; -1 not queued; -2 on the free list
}

// Queue is a min-heap of future events ordered by (At, insertion
// order). The zero value is ready to use.
type Queue struct {
	events  []*Event
	nextSeq uint64

	// free holds recycled Event structs for reuse by ScheduleEvent.
	free []*Event

	// lastPopped backs the -tags invariants monotonicity assertion:
	// a min-heap must never emit an event earlier than one it already
	// emitted.
	lastPopped Time
}

// Len reports the number of pending events.
//
//dreamsim:noalloc
func (q *Queue) Len() int { return len(q.events) }

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
func (q *Queue) Release(ev *Event) {
	if i := ev.index; i >= 0 && i < len(q.events) && q.events[i] == ev {
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
	if ev.index > 0 || (len(q.events) > 0 && ev.index == 0 && q.events[0] == ev) {
		panic("sim: event already queued")
	}
	ev.seq = q.nextSeq
	q.nextSeq++
	ev.index = len(q.events)
	q.events = append(q.events, ev)
	q.up(ev.index)
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
	if len(q.events) == 0 {
		return 0, false
	}
	return q.events[0].At, true
}

// Pop removes and returns the earliest pending event (ties broken by
// insertion order). It returns nil when the queue is empty. The
// caller owns the event until it calls Release (the Engine does this
// automatically after firing).
//
//dreamsim:noalloc
func (q *Queue) Pop() *Event {
	if len(q.events) == 0 {
		return nil
	}
	ev := q.events[0]
	if invariant.Enabled {
		invariant.Assertf(ev.At >= q.lastPopped,
			"sim: event queue popped tick %d after tick %d — simulated time must be monotone",
			ev.At, q.lastPopped)
		q.lastPopped = ev.At
	}
	last := len(q.events) - 1
	q.swap(0, last)
	q.events[last] = nil
	q.events = q.events[:last]
	if last > 0 {
		q.down(0)
	}
	ev.index = -1
	return ev
}

// Remove cancels a queued event and returns its memory to the pool.
// It reports whether the event was actually pending. The handle is
// dead after a successful Remove.
//
//dreamsim:noalloc
func (q *Queue) Remove(ev *Event) bool {
	i := ev.index
	if i < 0 || i >= len(q.events) || q.events[i] != ev {
		return false
	}
	last := len(q.events) - 1
	q.swap(i, last)
	q.events[last] = nil
	q.events = q.events[:last]
	if i < last {
		q.down(i)
		q.up(i)
	}
	ev.index = -1
	q.release(ev)
	return true
}

// Reset discards all pending events, recycling them and keeping both
// the heap's backing slice and the free list, so the next run reuses
// the same memory. Sequence numbering restarts so FIFO-within-tick
// ordering is reproduced exactly across runs.
//
//dreamsim:noalloc
func (q *Queue) Reset() {
	for i, ev := range q.events {
		q.events[i] = nil
		ev.index = -1
		q.release(ev)
	}
	q.events = q.events[:0]
	q.nextSeq = 0
	q.lastPopped = 0
}

func (q *Queue) less(i, j int) bool {
	a, b := q.events[i], q.events[j]
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

func (q *Queue) swap(i, j int) {
	q.events[i], q.events[j] = q.events[j], q.events[i]
	q.events[i].index = i
	q.events[j].index = j
}

func (q *Queue) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.swap(i, parent)
		i = parent
	}
}

func (q *Queue) down(i int) {
	n := len(q.events)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.swap(i, smallest)
		i = smallest
	}
}

// Engine couples a Clock with a Queue and runs events in time order.
type Engine struct {
	Clock Clock
	Queue Queue

	// TickStep, when true, advances the clock one tick at a time and
	// invokes OnTick on every tick (the paper's literal loop). When
	// false the clock jumps directly to the next event time.
	TickStep bool
	// OnTick, if set, runs once per timetick in TickStep mode after
	// the tick's events have fired.
	OnTick func(now Time)

	processed uint64
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.Clock.Now() }

// Reset rewinds the engine to its initial state — clock at tick 0, no
// pending events, no tick hook — while keeping the queue's backing
// slice and event pool for reuse by the next run.
func (e *Engine) Reset() {
	e.Queue.Reset()
	e.Clock = Clock{}
	e.TickStep = false
	e.OnTick = nil
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

// Run drives the simulation until the queue is empty or until stop
// (when non-nil) returns true. It returns the final simulated time —
// the paper's "total simulation time" (Eq. 5).
//
//dreamsim:noalloc
func (e *Engine) Run(stop func() bool) Time {
	if e.TickStep {
		return e.runTicked(stop)
	}
	for {
		if stop != nil && stop() {
			return e.Clock.Now()
		}
		if !e.Step() {
			return e.Clock.Now()
		}
	}
}

// runTicked advances one timetick at a time, firing any events due at
// each tick and then the OnTick hook — the paper's literal main loop.
func (e *Engine) runTicked(stop func() bool) Time {
	for {
		if stop != nil && stop() {
			return e.Clock.Now()
		}
		next, ok := e.Queue.PeekTime()
		if !ok {
			return e.Clock.Now()
		}
		// Walk tick-by-tick up to the next event time.
		for e.Clock.Now() < next {
			e.Clock.IncreaseTimeTick()
			if e.OnTick != nil {
				//lint:allocfree dynamic dispatch: the tick hook is user-supplied; tick-step mode is the paper-faithful ablation, not the gated hot path
				e.OnTick(e.Clock.Now())
			}
		}
		for {
			t, ok := e.Queue.PeekTime()
			if !ok || t != e.Clock.Now() {
				break
			}
			e.fire(e.Queue.Pop())
		}
	}
}
