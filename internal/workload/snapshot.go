package workload

import (
	"fmt"

	"dreamsim/internal/snapshot"
)

// This file encodes and restores the dynamic state of the synthetic
// task source for the checkpoint subsystem. Everything structural —
// spec, configuration pools, zipf tables, timeline, spikes — is
// rebuilt deterministically from the run parameters by the normal
// constructors; a snapshot carries only the cursors that move during
// a run: RNG stream positions, arrival clocks, the emitted count and
// the pool's recycled counter. Free lists are deliberately NOT
// captured: they affect allocation, never the emitted stream, so a
// restored source simply starts with an empty pool.

// Source tags. A source's cursors follow a tag that names their
// layout and the RNG the classes draw from, so a checkpoint cannot
// restore into a source that draws differently and continue one
// class's gaps from another stream.
const (
	// tagFlag is the layout older checkpoints hold for a flag-level
	// run, whose source drew each gap only when asked for the next
	// task: the task-stream RNG position, the last arrival tick, the
	// emitted count and the recycled count.
	tagFlag = 0
	// tagSubstreams is a source whose classes draw from their own
	// substreams: the emitted and recycled counts, then each class's
	// RNG position and next arrival.
	tagSubstreams = 1
	// tagShared is a degenerate source, whose one class draws from the
	// task-stream RNG, in tagSubstreams' layout.
	tagShared = 2
)

// EncodeState appends the ScenarioSource's tag and dynamic state: the
// global emit cursor plus each class's RNG position and next-arrival
// clock, in class-index order (which is file order — deterministic).
func (s *ScenarioSource) EncodeState(w *snapshot.Writer) {
	if s.shared {
		w.Int(tagShared)
	} else {
		w.Int(tagSubstreams)
	}
	w.Int(s.emitted)
	w.I64(s.recycled)
	w.Int(len(s.classes))
	for i := range s.classes {
		st := &s.classes[i]
		s0, s1 := st.r.State()
		w.U64(s0)
		w.U64(s1)
		w.I64(st.next)
	}
}

// RestoreState overwrites the ScenarioSource's dynamic state from a
// snapshot, in any tag's layout whose RNG matches the source's. The
// source must have been freshly compiled from the same scenario, spec
// and configuration list.
func (s *ScenarioSource) RestoreState(r *snapshot.Reader) error {
	tag := r.Int()
	if err := r.Err(); err != nil {
		return err
	}
	switch {
	case tag < tagFlag || tag > tagShared:
		return fmt.Errorf("%w: snapshot source tag %d", snapshot.ErrCorrupt, tag)
	case tag == tagSubstreams && s.shared:
		return fmt.Errorf("%w: snapshot source tag %d holds class substreams, the run's source draws from the task stream",
			snapshot.ErrCorrupt, tag)
	case tag != tagSubstreams && !s.shared:
		return fmt.Errorf("%w: snapshot source tag %d holds a task-stream source, the run's classes draw from class substreams",
			snapshot.ErrCorrupt, tag)
	case tag == tagFlag:
		return s.restoreFlag(r)
	}
	emitted := r.Int()
	recycled := r.I64()
	n := r.Count()
	if err := r.Err(); err != nil {
		return err
	}
	if n != len(s.classes) {
		return fmt.Errorf("%w: snapshot has %d scenario classes, source has %d",
			snapshot.ErrCorrupt, n, len(s.classes))
	}
	if emitted < 0 || emitted > s.total || recycled < 0 {
		return fmt.Errorf("%w: scenario emit cursor %d of %d tasks", snapshot.ErrCorrupt, emitted, s.total)
	}
	for i := range s.classes {
		st := &s.classes[i]
		s0 := r.U64()
		s1 := r.U64()
		next := r.I64()
		if err := r.Err(); err != nil {
			return err
		}
		if next < 0 {
			return fmt.Errorf("%w: class %q arrival clock %d", snapshot.ErrCorrupt, st.name, next)
		}
		st.r.SetState(s0, s1)
		st.next = next
	}
	s.emitted = emitted
	s.recycled = recycled
	return nil
}

// restoreFlag reads tagFlag's layout into a degenerate source. The
// layout carries no pending arrival, so the restore draws the gap now,
// as the next call of the source that wrote it would have.
func (s *ScenarioSource) restoreFlag(r *snapshot.Reader) error {
	s0 := r.U64()
	s1 := r.U64()
	last := r.I64()
	emitted := r.Int()
	recycled := r.I64()
	if err := r.Err(); err != nil {
		return err
	}
	if emitted < 0 || emitted > s.total {
		return fmt.Errorf("%w: source emitted %d of %d tasks", snapshot.ErrCorrupt, emitted, s.total)
	}
	if last < 0 || recycled < 0 {
		return fmt.Errorf("%w: negative source cursor", snapshot.ErrCorrupt)
	}
	st := &s.classes[0]
	st.r.SetState(s0, s1)
	st.next = last + s.gap(st, last)
	if st.next < last {
		return fmt.Errorf("%w: arrival clock %d overflows", snapshot.ErrCorrupt, last)
	}
	s.emitted = emitted
	s.recycled = recycled
	return nil
}
