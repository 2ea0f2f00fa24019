package monitor

import (
	"fmt"

	"dreamsim/internal/snapshot"
)

// Checkpoint support: a Recorder's dynamic state is the observation
// counter plus either the retained sample series (plain mode) or the
// aggregator's open window and closed-row ring (windowed mode). The
// sampling stride, class count and window size are configuration —
// they are rebuilt from run parameters and encoded only as a
// fingerprint so a restore into a differently-configured recorder
// fails loudly instead of silently diverging.
//
// A recorder streaming to a sink (the incremental timeline file)
// cannot be checkpointed: the sink's already-written output is
// outside the snapshot boundary.

// EncodeState appends the recorder's dynamic state.
func (r *Recorder) EncodeState(w *snapshot.Writer) error {
	if r.agg != nil && r.agg.sink != nil {
		return fmt.Errorf("monitor: a recorder with a timeline sink cannot be checkpointed")
	}
	w.Int(r.Every)
	w.Int(r.Classes)
	w.Int(r.calls)
	w.Bool(r.agg != nil)
	if r.agg == nil {
		w.Int(len(r.samples))
		for i := range r.samples {
			encodeSample(w, &r.samples[i])
		}
		return nil
	}
	a := r.agg
	w.Int(a.window)
	w.Int(len(a.buf))
	for i := range a.buf {
		encodeSample(w, &a.buf[i])
	}
	// Closed rows leave in oldest-first order; the ring rotation is an
	// internal artifact the restore does not need to reproduce.
	rows := a.Rows()
	w.Int(len(rows))
	for i := range rows {
		encodeRow(w, &rows[i])
	}
	w.Int(a.total)
	return nil
}

// RestoreState overwrites the recorder's dynamic state from a
// snapshot. The recorder must be freshly constructed with the same
// stride, class count and mode as the one that was encoded.
func (r *Recorder) RestoreState(rd *snapshot.Reader) error {
	every := rd.Int()
	classes := rd.Int()
	calls := rd.Int()
	windowed := rd.Bool()
	if err := rd.Err(); err != nil {
		return err
	}
	if every != r.Every || classes != r.Classes || windowed != (r.agg != nil) {
		return fmt.Errorf("%w: snapshot recorder (stride %d, %d classes, windowed %v) does not match run parameters (stride %d, %d classes, windowed %v)",
			snapshot.ErrCorrupt, every, classes, windowed, r.Every, r.Classes, r.agg != nil)
	}
	if calls < 0 {
		return fmt.Errorf("%w: negative observation count", snapshot.ErrCorrupt)
	}
	if r.agg == nil {
		n := rd.Count()
		if rd.Err() == nil && n > rd.Remaining()/minSampleBytes {
			return fmt.Errorf("%w: %d samples cannot fit in %d bytes", snapshot.ErrCorrupt, n, rd.Remaining())
		}
		samples := make([]Sample, n)
		for i := range samples {
			if err := r.decodeSample(rd, &samples[i]); err != nil {
				return err
			}
		}
		r.calls = calls
		r.samples = samples
		return nil
	}
	a := r.agg
	window := rd.Int()
	if rd.Err() == nil && window != a.window {
		return fmt.Errorf("%w: snapshot window %d samples, run parameters say %d",
			snapshot.ErrCorrupt, window, a.window)
	}
	nbuf := rd.Count()
	if rd.Err() == nil && nbuf >= a.window && a.window > 0 {
		return fmt.Errorf("%w: open window holds %d samples, window closes at %d",
			snapshot.ErrCorrupt, nbuf, a.window)
	}
	if rd.Err() == nil && nbuf > rd.Remaining()/minSampleBytes {
		return fmt.Errorf("%w: %d samples cannot fit in %d bytes", snapshot.ErrCorrupt, nbuf, rd.Remaining())
	}
	buf := make([]Sample, nbuf)
	for i := range buf {
		if err := r.decodeSample(rd, &buf[i]); err != nil {
			return err
		}
	}
	nrows := rd.Count()
	if rd.Err() == nil && nrows > windowRingCap {
		return fmt.Errorf("%w: %d retained window rows, ring holds %d", snapshot.ErrCorrupt, nrows, windowRingCap)
	}
	rows := make([]WindowRow, nrows)
	for i := range rows {
		if err := r.decodeRow(rd, &rows[i]); err != nil {
			return err
		}
	}
	total := rd.Int()
	if err := rd.Err(); err != nil {
		return err
	}
	if total < nrows {
		return fmt.Errorf("%w: %d total rows but %d retained", snapshot.ErrCorrupt, total, nrows)
	}
	r.calls = calls
	a.buf = buf
	a.rows = rows
	a.ringStart = 0
	a.total = total
	return nil
}

func encodeSample(w *snapshot.Writer, s *Sample) {
	w.I64(s.Time)
	w.Int(s.BlankNodes)
	w.Int(s.IdleNodes)
	w.Int(s.BusyNodes)
	w.Int(s.Running)
	w.Int(s.Suspended)
	w.I64(s.WastedArea)
	w.F64(s.Utilization)
	w.Int(len(s.ClassRunning))
	for _, c := range s.ClassRunning {
		w.Int(c)
	}
}

// minSampleBytes is the smallest encoding of one sample: encodeSample
// writes 9 fields of at least one byte each. A sample count above the
// remaining payload over this size cannot be genuine, so the decoder
// rejects it before allocating the series.
const minSampleBytes = 9

// decodeSample decodes one sample. Observe gives every sample a
// per-class census of exactly Classes entries, so any other length is
// corrupt.
func (r *Recorder) decodeSample(rd *snapshot.Reader, s *Sample) error {
	s.Time = rd.I64()
	s.BlankNodes = rd.Int()
	s.IdleNodes = rd.Int()
	s.BusyNodes = rd.Int()
	s.Running = rd.Int()
	s.Suspended = rd.Int()
	s.WastedArea = rd.I64()
	s.Utilization = rd.F64()
	if n := rd.Count(); rd.Err() == nil && n != r.Classes {
		return fmt.Errorf("%w: sample census of %d classes, recorder has %d", snapshot.ErrCorrupt, n, r.Classes)
	} else if n > 0 {
		s.ClassRunning = make([]int, n)
		for i := range s.ClassRunning {
			s.ClassRunning[i] = rd.Int()
		}
	}
	return rd.Err()
}

func encodeStat(w *snapshot.Writer, s *WindowStat) {
	w.F64(s.Min)
	w.F64(s.Max)
	w.F64(s.Mean)
	w.F64(s.P99)
}

func decodeStat(rd *snapshot.Reader, s *WindowStat) {
	s.Min = rd.F64()
	s.Max = rd.F64()
	s.Mean = rd.F64()
	s.P99 = rd.F64()
}

func encodeRow(w *snapshot.Writer, row *WindowRow) {
	w.I64(row.Start)
	w.I64(row.End)
	w.Int(row.Samples)
	encodeStat(w, &row.Utilization)
	encodeStat(w, &row.Running)
	encodeStat(w, &row.Suspended)
	encodeStat(w, &row.WastedArea)
	w.Int(len(row.ClassRunning))
	for i := range row.ClassRunning {
		encodeStat(w, &row.ClassRunning[i])
	}
}

// decodeRow decodes one window row; like a sample, its census must
// have Classes entries (Reduce sizes it from its samples').
func (r *Recorder) decodeRow(rd *snapshot.Reader, row *WindowRow) error {
	row.Start = rd.I64()
	row.End = rd.I64()
	row.Samples = rd.Int()
	decodeStat(rd, &row.Utilization)
	decodeStat(rd, &row.Running)
	decodeStat(rd, &row.Suspended)
	decodeStat(rd, &row.WastedArea)
	if n := rd.Count(); rd.Err() == nil && n != r.Classes {
		return fmt.Errorf("%w: window census of %d classes, recorder has %d", snapshot.ErrCorrupt, n, r.Classes)
	} else if n > 0 {
		row.ClassRunning = make([]WindowStat, n)
		for i := range row.ClassRunning {
			decodeStat(rd, &row.ClassRunning[i])
		}
	}
	return rd.Err()
}
