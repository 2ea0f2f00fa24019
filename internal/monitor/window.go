package monitor

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
)

// The rolling-window aggregation path: at cluster scale a run emits
// millions of monitoring samples, so the recorder cannot keep the
// full series (that is O(tasks) memory). Instead consecutive samples
// fold into fixed-size windows; each closed window reduces to one
// WindowRow (min/max/mean/p99 per metric) that is streamed to an
// optional sink immediately and retained only in a bounded ring.
// Memory is O(window + ring), independent of run length.

// WindowStat summarises one metric over one aggregation window.
// P99 is the nearest-rank 99th percentile of the window's samples.
type WindowStat struct {
	Min, Max, Mean, P99 float64
}

// WindowRow is one closed window of the streaming timeline: the tick
// range its samples covered, the sample count, and per-metric stats.
type WindowRow struct {
	Start, End  int64
	Samples     int
	Utilization WindowStat
	Running     WindowStat
	Suspended   WindowStat
	WastedArea  WindowStat
	// ClassRunning carries one Running-style stat per traffic class;
	// nil when the window's samples carried no per-class census.
	ClassRunning []WindowStat
}

// windowRingCap bounds how many closed rows an Aggregator retains for
// end-of-run summaries (sparklines, Result.Windows). Older rows are
// evicted once the ring is full; the streamed sink, when set, has
// received every row regardless.
const windowRingCap = 1024

// Aggregator folds monitoring samples into consecutive windows of a
// fixed sample count. It is the bounded-memory replacement for the
// recorder's unbounded sample slice.
type Aggregator struct {
	window int
	sink   func(WindowRow) error

	buf []Sample // current, not yet closed window

	rows      []WindowRow // ring of the most recent closed rows
	ringStart int         // index of the oldest retained row
	total     int         // rows closed over the whole run
	err       error
}

// NewAggregator returns an aggregator closing a window every `window`
// samples (minimum 1). sink, when non-nil, receives each closed row
// in order; its first error stops further sink calls and is returned
// by Flush.
func NewAggregator(window int, sink func(WindowRow) error) *Aggregator {
	if window < 1 {
		window = 1
	}
	return &Aggregator{window: window, sink: sink}
}

// add folds s into the current window with a per-class census of
// classes entries copied from gauge (a class past gauge's end counts
// zero). Each buffer slot keeps its census slice from one window to
// the next, so after the first window a sample allocates nothing.
func (a *Aggregator) add(s Sample, classes int, gauge []int) {
	n := len(a.buf)
	a.buf = slices.Grow(a.buf, 1)[:n+1]
	slot := &a.buf[n]
	census := slot.ClassRunning
	*slot = s
	slot.ClassRunning = nil
	if classes > 0 {
		if cap(census) < classes {
			census = make([]int, classes)
		}
		census = census[:classes]
		clear(census[copy(census, gauge):])
		slot.ClassRunning = census
	}
	if len(a.buf) >= a.window {
		a.closeWindow()
	}
}

// Flush closes the current partial window, if any, and returns the
// first sink error.
func (a *Aggregator) Flush() error {
	if len(a.buf) > 0 {
		a.closeWindow()
	}
	return a.err
}

// TotalRows reports how many windows closed over the whole run,
// including rows evicted from the retained ring.
func (a *Aggregator) TotalRows() int { return a.total }

// Rows returns the retained rows, oldest first. At most windowRingCap
// rows are kept; TotalRows tells whether older ones were evicted.
func (a *Aggregator) Rows() []WindowRow {
	if a.ringStart == 0 {
		return a.rows
	}
	out := make([]WindowRow, 0, len(a.rows))
	out = append(out, a.rows[a.ringStart:]...)
	out = append(out, a.rows[:a.ringStart]...)
	return out
}

// closeWindow reduces the buffered samples to one row, hands it to
// the sink and the ring, and resets the buffer.
func (a *Aggregator) closeWindow() {
	row := Reduce(a.buf)
	a.buf = a.buf[:0]
	a.total++
	if a.sink != nil && a.err == nil {
		a.err = a.sink(row)
	}
	if len(a.rows) < windowRingCap {
		a.rows = append(a.rows, row)
		return
	}
	a.rows[a.ringStart] = row
	a.ringStart = (a.ringStart + 1) % windowRingCap
}

// Reduce computes the aggregate row of a non-empty sample window. It
// is the single reduction definition: the aggregator uses it window
// by window, and tests use it over full sample histories to prove the
// streamed aggregates match the materialized ones exactly.
func Reduce(samples []Sample) WindowRow {
	row := WindowRow{
		Start:   samples[0].Time,
		End:     samples[len(samples)-1].Time,
		Samples: len(samples),
	}
	var scratch []float64
	stat := func(get func(Sample) float64) WindowStat {
		scratch = scratch[:0]
		for _, s := range samples {
			scratch = append(scratch, get(s))
		}
		return reduceStat(scratch)
	}
	row.Utilization = stat(func(s Sample) float64 { return s.Utilization })
	row.Running = stat(func(s Sample) float64 { return float64(s.Running) })
	row.Suspended = stat(func(s Sample) float64 { return float64(s.Suspended) })
	row.WastedArea = stat(func(s Sample) float64 { return float64(s.WastedArea) })
	if classes := len(samples[0].ClassRunning); classes > 0 {
		row.ClassRunning = make([]WindowStat, classes)
		for c := 0; c < classes; c++ {
			row.ClassRunning[c] = stat(func(s Sample) float64 {
				if c < len(s.ClassRunning) {
					return float64(s.ClassRunning[c])
				}
				return 0
			})
		}
	}
	return row
}

// reduceStat computes min/max/mean/p99 of vs (len >= 1). vs is sorted
// in place.
func reduceStat(vs []float64) WindowStat {
	var sum float64
	for _, v := range vs {
		sum += v
	}
	sort.Float64s(vs)
	return WindowStat{
		Min:  vs[0],
		Max:  vs[len(vs)-1],
		Mean: sum / float64(len(vs)),
		P99:  vs[nearestRank(len(vs), 0.99)],
	}
}

// nearestRank returns the 0-based index of the nearest-rank q-th
// quantile in a sorted slice of length n: ceil(q*n) - 1.
func nearestRank(n int, q float64) int {
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= n {
		idx = n - 1
	}
	return idx
}

// TimelineWriter streams WindowRows as CSV: a header line, then one
// row per closed window, appended as the run progresses — the
// incremental timeline output. It never holds more than one row.
type TimelineWriter struct {
	bw          *bufio.Writer
	wroteHeader bool
}

// NewTimelineWriter wraps w.
func NewTimelineWriter(w io.Writer) *TimelineWriter {
	return &TimelineWriter{bw: bufio.NewWriter(w)}
}

// timelineHeader names the CSV columns, in row order.
const timelineHeader = "start,end,samples," +
	"util_min,util_max,util_mean,util_p99," +
	"running_min,running_max,running_mean,running_p99," +
	"suspended_min,suspended_max,suspended_mean,suspended_p99," +
	"wasted_min,wasted_max,wasted_mean,wasted_p99"

// Write appends one window row (emitting the header first) and
// flushes, so a consumer tailing the file sees rows as they close.
// Rows carrying a per-class census get extra class<i>_* column groups
// after the fixed columns; class-free timelines are byte-identical to
// the pre-scenario format.
func (tw *TimelineWriter) Write(row WindowRow) error {
	if !tw.wroteHeader {
		tw.wroteHeader = true
		header := timelineHeader
		for i := range row.ClassRunning {
			header += fmt.Sprintf(",class%d_min,class%d_max,class%d_mean,class%d_p99", i, i, i, i)
		}
		if _, err := fmt.Fprintln(tw.bw, header); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(tw.bw, "%d,%d,%d,%s,%s,%s,%s",
		row.Start, row.End, row.Samples,
		csvStat(row.Utilization), csvStat(row.Running),
		csvStat(row.Suspended), csvStat(row.WastedArea)); err != nil {
		return err
	}
	for _, cs := range row.ClassRunning {
		if _, err := fmt.Fprintf(tw.bw, ",%s", csvStat(cs)); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(tw.bw); err != nil {
		return err
	}
	return tw.bw.Flush()
}

// csvStat renders one metric's four columns.
func csvStat(s WindowStat) string {
	return fmt.Sprintf("%g,%g,%g,%g", s.Min, s.Max, s.Mean, s.P99)
}
