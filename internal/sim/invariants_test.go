//go:build invariants

package sim

import (
	"strings"
	"testing"
)

// TestQueuePopMonotonicityAssert checks the tagged build catches the
// one misuse the raw Queue cannot reject at Push time: scheduling an
// event earlier than one already popped (Engine.ScheduleEventAt guards
// this, a bare Queue does not).
func TestQueuePopMonotonicityAssert(t *testing.T) {
	var q Queue
	q.ScheduleEvent(10, "first", nop, nil, nil)
	if ev := q.Pop(); ev == nil || ev.At != 10 {
		t.Fatalf("Pop = %v, want event at 10", ev)
	}
	q.ScheduleEvent(5, "stale", nop, nil, nil)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("popping a pre-dated event did not trip the invariant")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "monotone") {
			t.Fatalf("panic message = %v", r)
		}
	}()
	q.Pop()
}

// TestQueuePopMonotoneOK checks well-ordered use stays silent under
// the tag.
func TestQueuePopMonotoneOK(t *testing.T) {
	var q Queue
	for _, at := range []Time{3, 1, 2} {
		q.ScheduleEvent(at, "ev", nop, nil, nil)
	}
	var got []Time
	for ev := q.Pop(); ev != nil; ev = q.Pop() {
		got = append(got, ev.At)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("pop order = %v, want [1 2 3]", got)
	}
}
