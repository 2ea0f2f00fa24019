package sim

import (
	"testing"

	"dreamsim/internal/invariant"
)

// The pool tests pin the ownership contract documented on Event: a
// handle is live from scheduling until its callback returns, Remove
// succeeds, or Release is called; after that the struct belongs to
// the free list and may be handed out again.

// TestPoolReusesReleasedEvent: Release feeds the next ScheduleEvent.
func TestPoolReusesReleasedEvent(t *testing.T) {
	var q Queue
	q.ScheduleEvent(1, "a", nop, nil, nil)
	popped := q.Pop()
	q.Release(popped)
	ev := q.ScheduleEvent(2, "b", nop, nil, nil)
	if ev != popped {
		t.Fatal("ScheduleEvent did not reuse the released event struct")
	}
	if ev.At != 2 || ev.Kind != "b" || ev.A != nil || ev.B != nil {
		t.Fatalf("recycled event carries stale state: %+v", ev)
	}
}

// TestRemoveReturnsPooledMemory: a cancelled event's struct is handed
// out by the very next ScheduleEvent, and the cancellation leaves the
// heap ordering intact.
func TestRemoveReturnsPooledMemory(t *testing.T) {
	var q Queue
	a := q.ScheduleEvent(5, "a", nop, nil, nil)
	q.ScheduleEvent(6, "b", nop, nil, nil)
	if !q.Remove(a) {
		t.Fatal("Remove failed")
	}
	c := q.ScheduleEvent(7, "c", nop, nil, nil)
	if c != a {
		t.Fatal("ScheduleEvent after Remove did not reuse the cancelled struct")
	}
	if got := q.Pop(); got.Kind != "b" {
		t.Fatalf("first pop = %q, want b", got.Kind)
	}
	if got := q.Pop(); got != c || got.Kind != "c" {
		t.Fatalf("second pop = %q, want c", got.Kind)
	}
}

// TestPooledEventsNeverAliasLive: recycling one event and mutating
// its successor must not disturb events still in the heap.
func TestPooledEventsNeverAliasLive(t *testing.T) {
	var q Queue
	q.ScheduleEvent(1, "dead", nop, nil, nil)
	live := q.ScheduleEvent(9, "live", nop, nil, nil)
	q.Release(q.Pop())
	fresh := q.ScheduleEvent(3, "fresh", nop, nil, nil)
	if fresh == live {
		t.Fatal("pool handed out a live event")
	}
	fresh.Kind = "mutated"
	fresh.A = "payload"
	if live.At != 9 || live.Kind != "live" || live.A != nil {
		t.Fatalf("mutating a recycled event corrupted a live one: %+v", live)
	}
	if got := q.Pop(); got != fresh {
		t.Fatal("heap order broken after recycling")
	}
	if got := q.Pop(); got != live {
		t.Fatal("live event lost after recycling")
	}
}

// TestResetKeepsFIFOWithinTick: after Reset the restarted sequence
// numbering reproduces insertion-order firing for same-tick events,
// exactly as a fresh queue would.
func TestResetKeepsFIFOWithinTick(t *testing.T) {
	var q Queue
	q.ScheduleEvent(10, "x", nop, nil, nil)
	q.ScheduleEvent(10, "y", nop, nil, nil)
	q.Reset()
	if q.Len() != 0 {
		t.Fatalf("Len after Reset = %d", q.Len())
	}
	var order []string
	for _, k := range []string{"first", "second", "third"} {
		k := k
		q.ScheduleEvent(42, k, func(*Event, Time) { order = append(order, k) }, nil, nil)
	}
	for q.Len() > 0 {
		ev := q.Pop()
		ev.Handle(ev, ev.At)
		q.Release(ev)
	}
	if len(order) != 3 || order[0] != "first" || order[1] != "second" || order[2] != "third" {
		t.Fatalf("post-Reset same-tick order = %v", order)
	}
}

// TestResetRecyclesPendingEvents: events pending at Reset time come
// back out of the pool.
func TestResetRecyclesPendingEvents(t *testing.T) {
	var q Queue
	a := q.ScheduleEvent(1, "a", nop, nil, nil)
	b := q.ScheduleEvent(2, "b", nop, nil, nil)
	q.Reset()
	// Pool is LIFO: b was released last, so it is handed out first.
	if got := q.ScheduleEvent(3, "c", nop, nil, nil); got != b {
		t.Fatal("Reset did not pool the pending events (first)")
	}
	if got := q.ScheduleEvent(4, "d", nop, nil, nil); got != a {
		t.Fatal("Reset did not pool the pending events (second)")
	}
}

// TestEngineReleasesFiredEvents: the engine recycles each event after
// its callback returns, so a schedule/fire loop reuses one struct.
func TestEngineReleasesFiredEvents(t *testing.T) {
	var e Engine
	first := e.ScheduleEventAt(1, "a", nop, nil, nil)
	if !e.Step() {
		t.Fatal("no event to step")
	}
	second := e.ScheduleEventAt(2, "b", nop, nil, nil)
	if second != first {
		t.Fatal("engine did not recycle the fired event")
	}
	if !e.Step() || e.Now() != 2 {
		t.Fatalf("second step failed, now=%d", e.Now())
	}
}

// TestEngineKeepsRequeuedEvents: a callback that re-Pushes its own
// event (the periodic-event idiom) must not have the struct recycled
// out from under it.
func TestEngineKeepsRequeuedEvents(t *testing.T) {
	var e Engine
	fired := 0
	var ev *Event
	ev = e.ScheduleEventAt(1, "tick", func(self *Event, now Time) {
		fired++
		if fired < 3 {
			self.At = now + 1
			e.Queue.Push(self)
		}
	}, nil, nil)
	e.Run(nil)
	if fired != 3 {
		t.Fatalf("periodic event fired %d times, want 3", fired)
	}
	// After the last firing the engine pools it; the next ScheduleEvent
	// must hand the same struct back.
	if got := e.ScheduleEventAt(e.Now(), "next", nop, nil, nil); got != ev {
		t.Fatal("final firing did not recycle the periodic event")
	}
}

// TestEngineResetRestoresInitialState: Reset rewinds clock, queue,
// hooks and counters so one engine serves many runs.
func TestEngineResetRestoresInitialState(t *testing.T) {
	var e Engine
	e.TickStep = true
	ticks := 0
	e.OnTick = func(Time) { ticks++ }
	e.ScheduleEventAt(3, "a", nop, nil, nil)
	e.ScheduleEventAt(5, "b", nop, nil, nil)
	e.Run(nil)
	if e.Now() != 5 || e.Processed() != 2 || ticks != 5 {
		t.Fatalf("pre-reset run wrong: now=%d processed=%d ticks=%d", e.Now(), e.Processed(), ticks)
	}
	e.Reset()
	if e.Now() != 0 || e.Processed() != 0 || e.Queue.Len() != 0 || e.TickStep || e.OnTick != nil {
		t.Fatal("Reset left engine state behind")
	}
	e.ScheduleEventAt(2, "c", nop, nil, nil)
	if got := e.Run(nil); got != 2 || e.Processed() != 1 {
		t.Fatalf("post-reset run wrong: end=%d processed=%d", got, e.Processed())
	}
}

// TestScheduleEventPayloads: Handler callbacks see the event's A/B
// payload slots and the recycled struct clears them.
func TestScheduleEventPayloads(t *testing.T) {
	var q Queue
	type task struct{ no int }
	pay := &task{no: 7}
	var got *task
	q.ScheduleEvent(4, "payload", func(ev *Event, now Time) {
		got = ev.A.(*task)
		if ev.B != nil {
			t.Error("B should be nil")
		}
		if now != 4 {
			t.Errorf("now = %d", now)
		}
	}, pay, nil)
	ev := q.Pop()
	ev.Handle(ev, ev.At)
	q.Release(ev)
	if got != pay {
		t.Fatal("payload not delivered")
	}
	if ev.A != nil || ev.Handle != nil {
		t.Fatal("released event kept payload or handler")
	}
	if next := q.ScheduleEvent(5, "next", nop, nil, nil); next != ev || next.A != nil {
		t.Fatal("recycled event kept payload")
	}
}

// TestReleaseQueuedEventPanics: pooling an event that is still in the
// heap would let two live events share one struct.
func TestReleaseQueuedEventPanics(t *testing.T) {
	var q Queue
	ev := q.ScheduleEvent(1, "x", nop, nil, nil)
	defer func() {
		if recover() == nil {
			t.Fatal("Release of a queued event did not panic")
		}
	}()
	q.Release(ev)
}

// TestPushFreedEventPanics: a stale handle must not re-enter the heap.
func TestPushFreedEventPanics(t *testing.T) {
	var q Queue
	ev := q.ScheduleEvent(1, "x", nop, nil, nil)
	q.Remove(ev)
	defer func() {
		if recover() == nil {
			t.Fatal("Push of a freed event did not panic")
		}
	}()
	ev.Handle = nop
	q.Push(ev)
}

// TestQueuePushPopZeroAlloc is the hard allocation gate on the event
// path: steady-state schedule/pop/release traffic must not allocate.
func TestQueuePushPopZeroAlloc(t *testing.T) {
	if invariant.Enabled {
		t.Skip("invariants build trades allocations for assertions")
	}
	if invariant.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	var q Queue
	at := Time(0)
	allocs := testing.AllocsPerRun(1000, func() {
		at++
		q.ScheduleEvent(at, "z", nop, nil, nil)
		q.ScheduleEvent(at, "z2", nop, nil, nil)
		q.Release(q.Pop())
		q.Release(q.Pop())
	})
	if allocs != 0 {
		t.Fatalf("queue push/pop allocates %v allocs/op, want 0", allocs)
	}
}

// BenchmarkQueuePushPop measures the pooled event path; the 0 B/op,
// 0 allocs/op result is gated in CI (perf-smoke).
func BenchmarkQueuePushPop(b *testing.B) {
	var q Queue
	// Warm the pool and heap slice so growth is outside the loop.
	for i := 0; i < 64; i++ {
		q.ScheduleEvent(Time(i), "w", nop, nil, nil)
	}
	q.Reset()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		at := Time(i)
		q.ScheduleEvent(at, "a", nop, nil, nil)
		q.ScheduleEvent(at, "b", nop, nil, nil)
		q.ScheduleEvent(at+1, "c", nop, nil, nil)
		q.Release(q.Pop())
		q.Release(q.Pop())
		q.Release(q.Pop())
	}
}
