package sim

import (
	"fmt"
	"math"
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

// queueModel drives a bare Queue beside its reference: a slice kept
// sorted by (At, insertion order). Every operation checks the queue's
// answer against the slice.
type queueModel struct {
	q    Queue
	ref  []refEvent
	ord  int
	last Time // last popped time
}

func (m *queueModel) push(at Time) {
	ev := m.q.ScheduleEvent(at, "p", nop, nil, nil)
	i := sort.Search(len(m.ref), func(i int) bool { return m.ref[i].at > at })
	m.ref = slices.Insert(m.ref, i, refEvent{ev, at, m.ord})
	m.ord++
}

func (m *queueModel) pop() error {
	ev := m.q.Pop()
	if len(m.ref) == 0 {
		if ev != nil {
			return fmt.Errorf("Pop on empty queue returned %d", ev.At)
		}
		return nil
	}
	if ev != m.ref[0].ev {
		got := slices.IndexFunc(m.ref, func(re refEvent) bool { return re.ev == ev })
		return fmt.Errorf("Pop = reference entry %d, want entry 0 (at %d, insertion %d)",
			got, m.ref[0].at, m.ref[0].ord)
	}
	if m.q.Remove(ev) {
		return fmt.Errorf("Remove of a popped event succeeded")
	}
	m.last = ev.At
	m.q.Release(ev)
	m.ref = m.ref[1:]
	return nil
}

func (m *queueModel) peek() error {
	at, ok := m.q.PeekTime()
	if ok != (len(m.ref) > 0) || ok && at != m.ref[0].at {
		return fmt.Errorf("PeekTime = %d,%v with %d pending", at, ok, len(m.ref))
	}
	return nil
}

// remove cancels the reference's i-th event.
func (m *queueModel) remove(i int) error {
	if !m.q.Remove(m.ref[i].ev) {
		return fmt.Errorf("Remove of a queued event at %d failed", m.ref[i].at)
	}
	m.ref = slices.Delete(m.ref, i, i+1)
	return nil
}

func (m *queueModel) reset() {
	m.q.Reset()
	m.ref, m.last = m.ref[:0], 0
}

// check compares Len and runs the queue's own invariant check.
func (m *queueModel) check() error {
	if m.q.Len() != len(m.ref) {
		return fmt.Errorf("Len = %d, want %d", m.q.Len(), len(m.ref))
	}
	return m.q.CheckInvariants()
}

// drain pops every pending event, checking each, and then the
// checkpoint view of an empty queue.
func (m *queueModel) drain() error {
	if err := m.checkPending(); err != nil {
		return err
	}
	for len(m.ref) > 0 {
		if err := m.peek(); err != nil {
			return err
		}
		if err := m.pop(); err != nil {
			return err
		}
		if err := m.check(); err != nil {
			return err
		}
	}
	return m.pop()
}

// checkPending compares the checkpoint view with the reference.
func (m *queueModel) checkPending() error {
	pending := m.q.Pending()
	if len(pending) != len(m.ref) {
		return fmt.Errorf("Pending holds %d events, want %d", len(pending), len(m.ref))
	}
	for i, ev := range pending {
		if ev != m.ref[i].ev {
			return fmt.Errorf("Pending[%d] at %d, want %d (insertion %d)", i, ev.At, m.ref[i].at, m.ref[i].ord)
		}
	}
	return nil
}

// TestQuickQueueExactOrder drives a bare Queue through random
// sequences of ScheduleEvent, Pop, PeekTime, Remove and Reset and
// checks every answer against a slice kept sorted by (At, insertion
// order). Unlike a monotonicity check, it catches a queue that
// reorders same-tick events. Fixed cases first cover the digit
// boundaries, same-tick ties that move between levels together, and
// times below zero.
func TestQuickQueueExactOrder(t *testing.T) {
	for _, c := range exactOrderCases {
		t.Run(c.name, func(t *testing.T) {
			var m queueModel
			m.q.lastPopped = math.MinInt64 // a clock that may start below zero
			if err := c.run(&m); err != nil {
				t.Fatal(err)
			}
			if err := m.drain(); err != nil {
				t.Fatal(err)
			}
		})
	}
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

// digitDelays sit on both sides of the first three digit boundaries
// (2^6 and 2^12 ticks), plus one three digits out.
var digitDelays = []Time{0, 1, 63, 64, 65, 4095, 4096, 4097, 1 << 18}

// unalignedStarts are clock readings at no digit boundary, one of
// them below zero. They ascend by more than the largest digitDelay, so
// draining one start's events never pops a time past the next start.
var unalignedStarts = []Time{-(1 << 20) + 5, 4_095 + 64*3, 1_000_037}

// exactOrderCases are the fixed TestQuickQueueExactOrder scripts; each
// leaves events pending for the final drain.
var exactOrderCases = []struct {
	name string
	run  func(m *queueModel) error
}{
	{"digit boundaries after a pop", func(m *queueModel) error {
		for _, s := range unalignedStarts {
			m.push(s)
			if err := m.pop(); err != nil {
				return err
			}
			for _, d := range digitDelays {
				m.push(s + d)
				m.push(s + d) // a same-tick tie
			}
			for range digitDelays {
				if err := m.pop(); err != nil {
					return err
				}
			}
			if err := m.check(); err != nil {
				return err
			}
			if err := m.drain(); err != nil {
				return err
			}
		}
		m.push(m.last + 1)
		return nil
	}},
	{"digit boundaries from a rebased base", func(m *queueModel) error {
		for _, s := range unalignedStarts {
			m.reset()
			m.q.lastPopped = math.MinInt64
			m.push(s + 1<<19)
			if err := m.peek(); err != nil { // base moves up to s+2^19's window
				return err
			}
			m.push(s) // below base: base becomes s itself
			if m.q.base != s {
				return fmt.Errorf("push at %d below base left base at %d", s, m.q.base)
			}
			for _, d := range digitDelays {
				m.push(s + d)
			}
			if err := m.check(); err != nil {
				return err
			}
			if err := m.drain(); err != nil {
				return err
			}
		}
		m.push(m.last + 1)
		return nil
	}},
	{"same-tick ties moved down together", func(m *queueModel) error {
		// Ties at level 2, level 1 and across the top level, each
		// interleaved with other ticks of the same bucket, so every
		// relink carries a run of ties past other events.
		for _, far := range []Time{5000, 200, 1 << 61} {
			for i := 0; i < 4; i++ {
				m.push(far)
				m.push(far + Time(i) + 1)
				m.push(far - Time(i) - 1)
				m.push(far)
			}
			if err := m.peek(); err != nil {
				return err
			}
			m.push(far) // a tie pushed after the first relink
			if err := m.check(); err != nil {
				return err
			}
		}
		return nil
	}},
	{"negative times crossing zero", func(m *queueModel) error {
		for _, at := range []Time{64, -1, 0, 1, -64, -65, 63, -4097, 1<<18 - 5, math.MinInt64 + 3, -1, 0, math.MaxInt64} {
			m.push(at)
		}
		for i := 0; i < 4; i++ {
			if err := m.pop(); err != nil {
				return err
			}
		}
		for _, at := range []Time{-1, 0, 1, m.last, m.last + 64} {
			if at >= m.last {
				m.push(at)
			}
		}
		return m.check()
	}},
}

// exactOrderRun plays steps random operations drawn from seed. Each
// run picks a time spread from 1 to 2^40 ticks; some pushes land
// below the last popped time (except under -tags invariants, whose
// monotonicity assertion rejects them) and, after a PeekTime, below
// the queue's base.
func exactOrderRun(seed int64, steps int) error {
	r := rand.New(rand.NewSource(seed))
	spread := int64(1) << r.Intn(41)
	var m queueModel
	for step := 0; step < steps; step++ {
		var err error
		switch k := r.Intn(40); {
		case k < 18:
			at := m.last + r.Int63n(spread+1)
			switch {
			case len(m.ref) > 0 && r.Intn(4) == 0:
				at = m.ref[r.Intn(len(m.ref))].at // a same-tick tie
			case !invariant.Enabled && r.Intn(8) == 0:
				at = m.last - 1 - r.Int63n(spread)
			}
			m.push(at)
		case k < 28:
			err = m.pop()
		case k < 33:
			err = m.peek()
		case k < 39:
			if len(m.ref) > 0 {
				err = m.remove(r.Intn(len(m.ref)))
			}
		default:
			m.reset()
		}
		if err == nil {
			err = m.check()
		}
		if err != nil {
			return fmt.Errorf("step %d: %v", step, err)
		}
	}
	return m.checkPending()
}

// maxScript bounds a fuzzed script, so its times stay far from the
// int64 limits.
const maxScript = 4096

// playScript runs a fuzzer-chosen script against the reference. Each
// step is one byte whose low three bits pick the operation. A push
// reads two more bytes as its delay from the last popped time, shifted
// left by the step byte's high five bits, so delays reach 2^47 ticks;
// outside -tags invariants one push kind lands that far below it
// instead. Remove and a same-tick tie read one byte to pick their
// event.
func playScript(script []byte) error {
	if len(script) > maxScript {
		script = script[:maxScript]
	}
	var m queueModel
	for pos := 0; pos < len(script); {
		op := script[pos]
		pos++
		arg := func(n int) uint64 {
			var v uint64
			for i := 0; i < n && pos < len(script); i++ {
				v |= uint64(script[pos]) << (8 * i)
				pos++
			}
			return v
		}
		var err error
		switch op & 7 {
		case 0, 1:
			m.push(m.last + Time(arg(2)<<(op>>3)))
		case 2:
			d := Time(arg(2) << (op >> 3))
			if invariant.Enabled {
				m.push(m.last + d)
			} else {
				m.push(m.last - 1 - d)
			}
		case 3:
			err = m.pop()
		case 4:
			err = m.peek()
		case 5:
			if k := arg(1); len(m.ref) > 0 {
				err = m.remove(int(k) % len(m.ref))
			}
		case 6:
			if k := arg(1); len(m.ref) > 0 {
				m.push(m.ref[int(k)%len(m.ref)].at)
			}
		default:
			m.reset()
		}
		if err == nil {
			err = m.check()
		}
		if err != nil {
			return fmt.Errorf("byte %d (op %d): %v", pos, op&7, err)
		}
	}
	return m.drain()
}

// FuzzQueueOrder checks a bare Queue against the sorted reference
// under fuzzer-chosen ScheduleEvent, Pop, PeekTime, Remove and Reset
// steps (see playScript).
func FuzzQueueOrder(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 63, 0, 0, 64, 0, 0, 65, 0, 3, 4, 3, 3, 3})
	f.Add([]byte{0, 0xff, 0x0f, 0, 0, 0x10, 0, 1, 0x10, 6, 0, 6, 1, 4, 5, 1, 3, 3})
	f.Add([]byte{2, 5, 0, 0x82, 1, 0, 0, 0, 0, 4, 3, 0xf8, 0xff, 0xff, 6, 2, 3, 7, 0, 9, 0, 3})
	f.Add([]byte{0x10, 0, 1, 0x28, 0, 1, 0x60, 0, 1, 4, 0x18, 3, 0, 3, 3, 5, 0, 3})
	f.Fuzz(func(t *testing.T, script []byte) {
		if err := playScript(script); err != nil {
			t.Fatal(err)
		}
	})
}

// TestQueueCatchesCorruption breaks one piece of the radix heap at a
// time and expects CheckInvariants to fail each time.
func TestQueueCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(q *Queue, evs []*Event)
	}{
		{"back link", func(q *Queue, evs []*Event) { evs[2].prev = nil }},
		{"tail", func(q *Queue, evs []*Event) { q.heads[evs[2].index].prev = evs[1] }},
		{"misfiled event", func(q *Queue, evs []*Event) { evs[6].At = 70 }},
		{"event below base", func(q *Queue, evs []*Event) { evs[0].At = 60 }},
		{"index", func(q *Queue, evs []*Event) { evs[3].index++ }},
		{"mask", func(q *Queue, evs []*Event) { q.mask[1] ^= 1 << 20 }},
		{"level mask", func(q *Queue, evs []*Event) { q.levelMask ^= 1 << 3 }},
		{"bucket past the top level", func(q *Queue, evs []*Event) { q.mask[levels-1] |= 1 << 20; q.levelMask |= 1 << (levels - 1) }},
		{"wrong digit", func(q *Queue, evs []*Event) {
			// Refile the level-1 event one digit up, consistently
			// linked, so only its digit is wrong.
			ev := evs[6]
			q.unlink(ev)
			q.link(ev, ev.index+1)
			q.n++
		}},
		{"length", func(q *Queue, evs []*Event) { q.n++ }},
		{"same-tick order", func(q *Queue, evs []*Event) { evs[1].seq, evs[2].seq = evs[2].seq, evs[1].seq }},
	}
	build := func() (*Queue, []*Event) {
		q := &Queue{}
		var evs []*Event
		for _, at := range []Time{70, 74, 74, 82, 105, 105, 365} {
			evs = append(evs, q.ScheduleEvent(at, "c", nop, nil, nil))
		}
		// Level 0 is empty, so base moves up to 64 and the first six
		// events relink into level 0; 365 stays in bucket (1, 5).
		q.PeekTime()
		return q, evs
	}
	q, evs := build()
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if q.base != 64 || evs[0].index != 6 || evs[6].index != 1<<digitBits|5 {
		t.Fatalf("base %d, first event in bucket %d, last in %d; want 64, 6 and %d", q.base, evs[0].index, evs[6].index, 1<<digitBits|5)
	}
	for _, c := range cases {
		q, evs := build()
		c.corrupt(q, evs)
		if err := q.CheckInvariants(); err == nil {
			t.Errorf("%s corruption not detected", c.name)
		}
	}
}
