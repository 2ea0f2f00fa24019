package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"dreamsim/internal/invariant"
)

// refEvent is the sorted reference's record of one queued event.
type refEvent struct {
	ev  *Event
	at  Time
	ord int // insertion order
}

// TestQuickQueueExactOrder drives a bare Queue through random
// sequences of ScheduleEvent, Pop, PeekTime, Remove and Reset and
// checks every answer against a slice kept sorted by (At, insertion
// order). Unlike a monotonicity check, it catches a queue that
// reorders same-tick events.
func TestQuickQueueExactOrder(t *testing.T) {
	seeds := int64(3000)
	if testing.Short() {
		seeds = 300
	}
	for seed := int64(1); seed <= seeds; seed++ {
		if err := exactOrderRun(seed, 200); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// exactOrderRun plays steps random operations drawn from seed. Each
// run picks a time spread from 1 to 2^40 ticks; some pushes land
// below the last popped time (except under -tags invariants, whose
// monotonicity assertion rejects them) and, after a PeekTime, below
// the queue's base.
func exactOrderRun(seed int64, steps int) error {
	r := rand.New(rand.NewSource(seed))
	spread := int64(1) << r.Intn(41)
	var q Queue
	var ref []refEvent
	ord := 0
	last := Time(0) // last popped time
	for step := 0; step < steps; step++ {
		switch k := r.Intn(40); {
		case k < 18:
			at := last + r.Int63n(spread+1)
			switch {
			case len(ref) > 0 && r.Intn(4) == 0:
				at = ref[r.Intn(len(ref))].at // a same-tick tie
			case !invariant.Enabled && r.Intn(8) == 0:
				at = last - 1 - r.Int63n(spread)
			}
			ev := q.ScheduleEvent(at, "p", nop, nil, nil)
			i := sort.Search(len(ref), func(i int) bool { return ref[i].at > at })
			ref = slices.Insert(ref, i, refEvent{ev, at, ord})
			ord++
		case k < 28:
			ev := q.Pop()
			if len(ref) == 0 {
				if ev != nil {
					return fmt.Errorf("step %d: Pop on empty queue returned %d", step, ev.At)
				}
				break
			}
			if ev != ref[0].ev {
				got := slices.IndexFunc(ref, func(re refEvent) bool { return re.ev == ev })
				return fmt.Errorf("step %d: Pop = reference entry %d, want entry 0 (at %d, insertion %d)",
					step, got, ref[0].at, ref[0].ord)
			}
			if q.Remove(ev) {
				return fmt.Errorf("step %d: Remove of a popped event succeeded", step)
			}
			last = ev.At
			q.Release(ev)
			ref = ref[1:]
		case k < 33:
			at, ok := q.PeekTime()
			if ok != (len(ref) > 0) || ok && at != ref[0].at {
				return fmt.Errorf("step %d: PeekTime = %d,%v with %d pending", step, at, ok, len(ref))
			}
		case k < 39:
			if len(ref) == 0 {
				break
			}
			i := r.Intn(len(ref))
			if !q.Remove(ref[i].ev) {
				return fmt.Errorf("step %d: Remove of a queued event at %d failed", step, ref[i].at)
			}
			ref = slices.Delete(ref, i, i+1)
		default:
			q.Reset()
			ref, last = ref[:0], 0
		}
		if q.Len() != len(ref) {
			return fmt.Errorf("step %d: Len = %d, want %d", step, q.Len(), len(ref))
		}
		if err := q.CheckInvariants(); err != nil {
			return fmt.Errorf("step %d: %v", step, err)
		}
	}
	pending := q.Pending()
	if len(pending) != len(ref) {
		return fmt.Errorf("Pending holds %d events, want %d", len(pending), len(ref))
	}
	for i, ev := range pending {
		if ev != ref[i].ev {
			return fmt.Errorf("Pending[%d] at %d, want %d (insertion %d)", i, ev.At, ref[i].at, ref[i].ord)
		}
	}
	return nil
}

// TestQueueCatchesCorruption breaks one piece of the radix heap at a
// time and expects CheckInvariants to fail each time.
func TestQueueCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(q *Queue, evs []*Event)
	}{
		{"back link", func(q *Queue, evs []*Event) { evs[2].prev = nil }},
		{"tail", func(q *Queue, evs []*Event) { q.buckets[evs[2].index].tail = evs[1] }},
		{"misfiled event", func(q *Queue, evs []*Event) { evs[6].At = 6 }},
		{"event below base", func(q *Queue, evs []*Event) { evs[0].At = 4 }},
		{"index", func(q *Queue, evs []*Event) { evs[3].index++ }},
		{"mask", func(q *Queue, evs []*Event) { q.mask ^= 1 << 20 }},
		{"length", func(q *Queue, evs []*Event) { q.n++ }},
		{"same-tick order", func(q *Queue, evs []*Event) { evs[1].seq, evs[2].seq = evs[2].seq, evs[1].seq }},
	}
	build := func() (*Queue, []*Event) {
		q := &Queue{}
		var evs []*Event
		for _, at := range []Time{5, 9, 9, 17, 40, 40, 300} {
			evs = append(evs, q.ScheduleEvent(at, "c", nop, nil, nil))
		}
		q.PeekTime() // settle: base 5, the rest spread over buckets 3-9
		return q, evs
	}
	q, _ := build()
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		q, evs := build()
		c.corrupt(q, evs)
		if err := q.CheckInvariants(); err == nil {
			t.Errorf("%s corruption not detected", c.name)
		}
	}
}
