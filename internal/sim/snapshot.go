package sim

import (
	"cmp"
	"slices"
)

// This file is the sim package's contribution to the checkpoint
// subsystem. A snapshot never serializes the bucket layout — only the
// pending events in their total firing order (At, insertion order).
// Restoring re-Pushes events in exactly that order, which reproduces
// the relative sequence numbering and therefore the identical pop
// order, regardless of which buckets the original queue had filed
// them in.

// Pending returns the queued events sorted by firing order — (At,
// seq) ascending. The returned slice is freshly allocated; the events
// themselves are the live queued structs and must not be mutated.
func (q *Queue) Pending() []*Event {
	out := make([]*Event, 0, q.n)
	for _, h := range q.heads {
		for ev := h; ev != nil; ev = ev.next {
			out = append(out, ev)
		}
	}
	slices.SortFunc(out, func(a, b *Event) int {
		if a.At != b.At {
			return cmp.Compare(a.At, b.At)
		}
		return cmp.Compare(a.seq, b.seq)
	})
	return out
}

// NextSeq exposes the queue's insertion counter for serialization.
// It is part of observable state: a restored run must hand out the
// same tie-breaking sequence numbers the uninterrupted run would.
func (q *Queue) NextSeq() uint64 { return q.nextSeq }

// RestoreSeq overwrites the insertion counter after the pending
// events have been re-Pushed. The stored counter can never be lower
// than the number of re-Pushed events, so a lower value means the
// snapshot is inconsistent; the caller turns the false return into a
// corruption error.
func (q *Queue) RestoreSeq(v uint64) bool {
	if v < q.nextSeq {
		return false
	}
	q.nextSeq = v
	return true
}

// RestoreProcessed overwrites the fired-event counter so a restored
// engine reports the same progress an uninterrupted run would.
func (e *Engine) RestoreProcessed(v uint64) { e.processed = v }
