//go:build invariants

package sim

import (
	"strings"
	"testing"
)

// TestReleasePoisonsFreedEvent: under -tags invariants a pooled event
// is overwritten with sentinel values so any read through a stale
// handle is visibly wrong rather than silently plausible.
func TestReleasePoisonsFreedEvent(t *testing.T) {
	var q Queue
	ev := q.ScheduleEvent(123, "live", nop, nil, nil)
	q.Remove(ev)
	if ev.Kind != FreedKind {
		t.Fatalf("freed event Kind = %q, want %q", ev.Kind, FreedKind)
	}
	if ev.At != poisonedAt {
		t.Fatalf("freed event At = %d, want poison", ev.At)
	}
	if ev.Handle != nil || ev.A != nil || ev.B != nil {
		t.Fatal("freed event retains callback or payload")
	}
}

// TestDoubleReleaseAsserts: releasing the same struct twice would put
// two aliases of it on the free list; the invariants build panics.
func TestDoubleReleaseAsserts(t *testing.T) {
	var q Queue
	ev := q.ScheduleEvent(1, "x", nop, nil, nil)
	q.Release(q.Pop())
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double release did not panic under -tags invariants")
		}
		if !strings.Contains(r.(string), "double release") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	q.Release(ev)
}
