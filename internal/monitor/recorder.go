// Package monitor implements DReAMSim's monitoring module (paper
// §III, core subsystem): "the current states of different nodes can be
// checked by the monitoring module". A Recorder samples those states
// over a run, from the node census the resource information manager
// keeps on every transition, and keeps the samples as a series or
// folds them into rolling windows.
package monitor

import (
	"fmt"
	"strings"

	"dreamsim/internal/resinfo"
)

// Sample is one light-weight time-series point recorded during a run.
// A down node holds no configuration, so BlankNodes counts it.
type Sample struct {
	Time        int64
	BlankNodes  int
	IdleNodes   int
	BusyNodes   int
	Running     int
	Suspended   int
	WastedArea  int64   // Eq. 6 instantaneous value
	Utilization float64 // configured share of the total fabric area
	// ClassRunning splits Running across traffic classes; nil unless
	// the recorder has Classes set (multi-class scenario runs).
	ClassRunning []int
}

// Recorder collects periodic samples of system state — the
// monitoring module's view over time. Observe reads counts the engine
// already keeps, so a sample walks nothing.
//
// A plain recorder accumulates every sample (O(samples) memory, fine
// for paper-scale runs). A windowed recorder (NewWindowRecorder)
// instead folds samples into a rolling-window Aggregator the moment
// they are taken, so cluster-scale runs keep O(window) memory.
type Recorder struct {
	// Every is the sampling stride: a sample is taken on every
	// Every-th Observe call (minimum 1).
	Every int
	// Classes, when positive, makes every sample carry a per-class
	// running-task census of that many traffic classes. Zero (the
	// default) keeps the legacy sample shape.
	Classes int

	calls   int
	samples []Sample
	agg     *Aggregator // non-nil in windowed (streaming) mode
}

// NewRecorder returns a recorder sampling every stride-th observation.
func NewRecorder(stride int) *Recorder {
	if stride < 1 {
		stride = 1
	}
	return &Recorder{Every: stride}
}

// NewWindowRecorder returns a recorder in bounded-memory streaming
// mode: every stride-th observation is folded into windows of the
// given sample count instead of being retained. sink, when non-nil,
// receives each closed WindowRow as the run progresses (the
// incremental timeline). Samples() stays empty in this mode; use
// Windows()/WindowsTotal() and FinishWindows().
func NewWindowRecorder(stride, window int, sink func(WindowRow) error) *Recorder {
	r := NewRecorder(stride)
	r.agg = NewAggregator(window, sink)
	return r
}

// Windowed reports whether the recorder aggregates instead of
// retaining samples.
func (r *Recorder) Windowed() bool { return r.agg != nil }

// FinishWindows closes the final partial window and returns the first
// sink error; a no-op on plain recorders.
func (r *Recorder) FinishWindows() error {
	if r.agg == nil {
		return nil
	}
	return r.agg.Flush()
}

// Windows returns the retained closed rows (oldest first, bounded —
// see Aggregator.Rows); nil on plain recorders.
func (r *Recorder) Windows() []WindowRow {
	if r.agg == nil {
		return nil
	}
	return r.agg.Rows()
}

// WindowsTotal reports how many windows closed over the whole run.
func (r *Recorder) WindowsTotal() int {
	if r.agg == nil {
		return 0
	}
	return r.agg.TotalRows()
}

// Observe possibly records a sample: the node census c, the running
// and suspended task counts and, with Classes set, each class's
// running tasks (classRunning, indexed by class; a class past its end
// counts zero).
func (r *Recorder) Observe(now int64, c resinfo.Census, running, suspended int, classRunning []int) {
	r.calls++
	if (r.calls-1)%r.Every != 0 {
		return
	}
	s := Sample{
		Time:       now,
		BlankNodes: c.Blank + c.Down,
		IdleNodes:  c.Idle(),
		BusyNodes:  c.Busy,
		Running:    running,
		Suspended:  suspended,
		WastedArea: c.WastedArea,
	}
	if c.TotalArea > 0 {
		s.Utilization = float64(c.TotalArea-c.AvailableArea) / float64(c.TotalArea)
	}
	if r.agg != nil {
		r.agg.add(s, r.Classes, classRunning)
		return
	}
	if r.Classes > 0 {
		s.ClassRunning = make([]int, r.Classes)
		copy(s.ClassRunning, classRunning)
	}
	r.samples = append(r.samples, s)
}

// Samples returns the recorded series.
func (r *Recorder) Samples() []Sample { return r.samples }

// sparkGlyphs maps a [0,1] level onto a bar glyph.
var sparkGlyphs = []byte(" .:-=+*#%@")

// Timeline renders utilisation and queue depth as width-column text
// sparklines (each column aggregates the mean of its sample bucket).
// In windowed mode the sparklines are drawn from the retained window
// rows (one pseudo-sample per row, carrying the row means), so the
// rendering stays bounded no matter how long the run was.
func (r *Recorder) Timeline(width int) string {
	samples, unit := r.samples, "samples"
	if r.agg != nil {
		unit = "windows"
		rows := r.agg.Rows()
		samples = make([]Sample, len(rows))
		for i, row := range rows {
			samples[i] = Sample{
				Time:        row.End,
				Utilization: row.Utilization.Mean,
				Suspended:   int(row.Suspended.Mean + 0.5),
			}
		}
	}
	return renderTimeline(samples, width, unit)
}

// renderTimeline draws the sparklines over an explicit sample series
// and counts the series in unit.
func renderTimeline(samples []Sample, width int, unit string) string {
	if width < 1 {
		width = 60
	}
	if len(samples) == 0 {
		return "(no samples)\n"
	}
	util := make([]float64, width)
	queue := make([]float64, width)
	counts := make([]int, width)
	maxQ := 1.0
	t0 := samples[0].Time
	t1 := samples[len(samples)-1].Time
	span := t1 - t0
	if span < 1 {
		span = 1
	}
	for _, s := range samples {
		col := int(int64(width-1) * (s.Time - t0) / span)
		util[col] += s.Utilization
		queue[col] += float64(s.Suspended)
		counts[col]++
		if q := float64(s.Suspended); q > maxQ {
			maxQ = q
		}
	}
	var ub, qb strings.Builder
	for i := 0; i < width; i++ {
		if counts[i] == 0 {
			ub.WriteByte(' ')
			qb.WriteByte(' ')
			continue
		}
		u := util[i] / float64(counts[i])
		q := queue[i] / float64(counts[i]) / maxQ
		ub.WriteByte(glyph(u))
		qb.WriteByte(glyph(q))
	}
	return fmt.Sprintf("fabric utilization |%s|\nsuspension queue   |%s| (peak %d)\nticks %d..%d, %d %s\n",
		ub.String(), qb.String(), int(maxQ), t0, t1, len(samples), unit)
}

// glyph maps level in [0,1] to a density character.
func glyph(level float64) byte {
	if level < 0 {
		level = 0
	}
	if level > 1 {
		level = 1
	}
	return sparkGlyphs[int(level*float64(len(sparkGlyphs)-1)+0.5)]
}
