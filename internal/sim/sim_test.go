package sim

import (
	"slices"
	"testing"
	"testing/quick"
)

// nop is a Handler for events whose firing the test does not observe.
func nop(*Event, Time) {}

// drain steps e until its queue is empty and returns the final time.
func drain(e *Engine) Time {
	for e.Step() {
	}
	return e.Now()
}

func TestClockBasics(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatalf("fresh clock at %d", c.Now())
	}
	if c.IncreaseTimeTick() != 1 || c.Now() != 1 {
		t.Fatal("IncreaseTimeTick broken")
	}
	c.AdvanceTo(10)
	if c.Now() != 10 {
		t.Fatalf("AdvanceTo gave %d", c.Now())
	}
}

func TestClockBackwardsPanics(t *testing.T) {
	var c Clock
	c.AdvanceTo(5)
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo(past) did not panic")
		}
	}()
	c.AdvanceTo(4)
}

func TestQueueOrdering(t *testing.T) {
	var q Queue
	var fired []int
	mk := func(id int, at Time) {
		q.ScheduleEvent(at, "t", func(*Event, Time) { fired = append(fired, id) }, nil, nil)
	}
	mk(3, 30)
	mk(1, 10)
	mk(2, 20)
	mk(0, 5)
	for q.Len() > 0 {
		ev := q.Pop()
		ev.Handle(ev, ev.At)
	}
	want := []int{0, 1, 2, 3}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired order %v, want %v", fired, want)
		}
	}
}

func TestQueueFIFOWithinTick(t *testing.T) {
	var q Queue
	var fired []int
	for i := 0; i < 50; i++ {
		id := i
		q.ScheduleEvent(100, "t", func(*Event, Time) { fired = append(fired, id) }, nil, nil)
	}
	for q.Len() > 0 {
		ev := q.Pop()
		ev.Handle(ev, ev.At)
	}
	for i, id := range fired {
		if id != i {
			t.Fatalf("same-tick events out of insertion order: %v", fired)
		}
	}
}

func TestQueueRemove(t *testing.T) {
	var q Queue
	a := q.ScheduleEvent(1, "a", nop, nil, nil)
	b := q.ScheduleEvent(2, "b", nop, nil, nil)
	c := q.ScheduleEvent(3, "c", nop, nil, nil)
	if !q.Remove(b) {
		t.Fatal("Remove(b) failed")
	}
	if q.Remove(b) {
		t.Fatal("Remove(b) twice succeeded")
	}
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
	if q.Pop() != a || q.Pop() != c {
		t.Fatal("wrong remaining order")
	}
	if q.Pop() != nil {
		t.Fatal("Pop on empty returned event")
	}
}

func TestQueuePeek(t *testing.T) {
	var q Queue
	if _, ok := q.PeekTime(); ok {
		t.Fatal("PeekTime on empty queue reported ok")
	}
	q.ScheduleEvent(42, "x", nop, nil, nil)
	if tt, ok := q.PeekTime(); !ok || tt != 42 {
		t.Fatalf("PeekTime = %d,%v", tt, ok)
	}
}

func TestEngineEventJump(t *testing.T) {
	var e Engine
	var times []Time
	e.ScheduleEventAt(10, "a", func(_ *Event, now Time) { times = append(times, now) }, nil, nil)
	e.ScheduleEventAt(5, "b", func(_ *Event, now Time) {
		times = append(times, now)
		e.ScheduleEventAfter(2, "c", func(_ *Event, now Time) { times = append(times, now) }, nil, nil)
	}, nil, nil)
	end := drain(&e)
	want := []Time{5, 7, 10}
	if len(times) != len(want) {
		t.Fatalf("fired %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("fired %v, want %v", times, want)
		}
	}
	if end != 10 {
		t.Fatalf("end time %d, want 10", end)
	}
	if e.Processed() != 3 {
		t.Fatalf("processed %d", e.Processed())
	}
}

// TestEnginePeekThenScheduleNow: a PeekTime that moves base up to a
// later 64-tick window, followed by an event scheduled at the current
// tick, sends the push below base, the Engine's path to the queue's
// rebase. The new event must fire first, at now, and the peeked one
// after it.
func TestEnginePeekThenScheduleNow(t *testing.T) {
	var e Engine
	var fired []string
	record := func(ev *Event, _ Time) { fired = append(fired, ev.Kind) }
	e.ScheduleEventAt(3, "first", record, nil, nil)
	e.ScheduleEventAt(100, "late", record, nil, nil)
	if !e.Step() || e.Now() != 3 {
		t.Fatalf("first step ended at %d, want 3", e.Now())
	}
	if next, ok := e.Queue.PeekTime(); !ok || next != 100 || e.Queue.base <= e.Now() {
		t.Fatalf("PeekTime = %d, %v with base %d; want 100 with base past now %d", next, ok, e.Queue.base, e.Now())
	}
	e.ScheduleEventAt(e.Now(), "now", record, nil, nil)
	if err := e.Queue.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if end := drain(&e); end != 100 || !slices.Equal(fired, []string{"first", "now", "late"}) {
		t.Fatalf("fired %v ending at %d, want [first now late] ending at 100", fired, end)
	}
}

// TestEngineStop: Step fires exactly one event, so a caller's loop can
// stop between any two; the rest stay queued at their times.
func TestEngineStop(t *testing.T) {
	var e Engine
	count := 0
	for i := 1; i <= 10; i++ {
		e.ScheduleEventAt(Time(i), "n", func(*Event, Time) { count++ }, nil, nil)
	}
	for count < 3 && e.Step() {
	}
	if count != 3 || e.Now() != 3 || e.Queue.Len() != 7 {
		t.Fatalf("stopped with count=%d now=%d pending=%d, want 3, 3, 7", count, e.Now(), e.Queue.Len())
	}
	if next, ok := e.Queue.PeekTime(); !ok || next != 4 {
		t.Fatalf("next pending at %d, %v; want 4", next, ok)
	}
}

func TestSchedulePastPanics(t *testing.T) {
	var e Engine
	e.Clock.AdvanceTo(100)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.ScheduleEventAt(99, "late", nop, nil, nil)
}

func TestNegativeDelayPanics(t *testing.T) {
	var e Engine
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.ScheduleEventAfter(-1, "x", nop, nil, nil)
}

func TestNilFirePanics(t *testing.T) {
	var q Queue
	defer func() {
		if recover() == nil {
			t.Fatal("nil Handle did not panic")
		}
	}()
	q.Push(&Event{At: 1})
}

func TestEngineRemoveScheduledEvent(t *testing.T) {
	var e Engine
	fired := []string{}
	keep := e.ScheduleEventAt(5, "keep", func(*Event, Time) { fired = append(fired, "keep") }, nil, nil)
	drop := e.ScheduleEventAt(3, "drop", func(*Event, Time) { fired = append(fired, "drop") }, nil, nil)
	_ = keep
	if !e.Queue.Remove(drop) {
		t.Fatal("Remove failed")
	}
	end := drain(&e)
	if len(fired) != 1 || fired[0] != "keep" {
		t.Fatalf("fired %v", fired)
	}
	if end != 5 {
		t.Fatalf("end %d", end)
	}
}

func TestEngineSelfCancellation(t *testing.T) {
	// An event firing at tick t may cancel a later event — the
	// pattern a pre-emption extension would use.
	var e Engine
	fired := 0
	victim := e.ScheduleEventAt(10, "victim", func(*Event, Time) { fired++ }, nil, nil)
	e.ScheduleEventAt(5, "canceller", func(*Event, Time) {
		if !e.Queue.Remove(victim) {
			t.Error("in-flight cancellation failed")
		}
	}, nil, nil)
	drain(&e)
	if fired != 0 {
		t.Fatal("cancelled event fired")
	}
}

// Property: popping a randomly filled queue yields non-decreasing times.
func TestQuickHeapOrder(t *testing.T) {
	f := func(times []uint16) bool {
		var q Queue
		for _, tt := range times {
			q.ScheduleEvent(Time(tt), "p", nop, nil, nil)
		}
		last := Time(-1)
		for q.Len() > 0 {
			ev := q.Pop()
			if ev.At < last {
				return false
			}
			last = ev.At
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: Remove leaves the heap consistent for arbitrary interleavings.
func TestQuickRemoveConsistency(t *testing.T) {
	f := func(times []uint8, removeMask []bool) bool {
		var q Queue
		evs := make([]*Event, len(times))
		for i, tt := range times {
			evs[i] = q.ScheduleEvent(Time(tt), "p", nop, nil, nil)
		}
		removed := 0
		for i, ev := range evs {
			if i < len(removeMask) && removeMask[i] {
				if q.Remove(ev) {
					removed++
				}
			}
		}
		if q.Len() != len(times)-removed {
			return false
		}
		last := Time(-1)
		for q.Len() > 0 {
			ev := q.Pop()
			if ev.At < last {
				return false
			}
			last = ev.At
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
