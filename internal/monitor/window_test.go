package monitor

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"dreamsim/internal/rng"
)

// rowsEqual compares two window rows; WindowRow carries a per-class
// slice so it is not ==-comparable.
func rowsEqual(a, b WindowRow) bool { return reflect.DeepEqual(a, b) }

// syntheticSamples builds a deterministic pseudo-random sample series.
func syntheticSamples(n int, seed uint64) []Sample {
	r := rng.New(seed)
	out := make([]Sample, n)
	t := int64(0)
	for i := range out {
		t += int64(1 + r.Intn(9))
		out[i] = Sample{
			Time:        t,
			Running:     r.Intn(501),
			Suspended:   r.Intn(101),
			WastedArea:  r.Int64Range(0, 10000),
			Utilization: float64(r.Intn(1001)) / 1000,
		}
	}
	return out
}

// TestAggregatorMatchesFullHistory proves the rolling-window path
// computes exactly what a full-history reduction over the same window
// chunks would: feed N samples through an Aggregator, then Reduce the
// materialized history chunk by chunk and compare every row.
func TestAggregatorMatchesFullHistory(t *testing.T) {
	for _, window := range []int{1, 7, 64, 1000} {
		samples := syntheticSamples(997, 42) // not a multiple: exercises the partial tail window
		var got []WindowRow
		agg := NewAggregator(window, func(row WindowRow) error {
			got = append(got, row)
			return nil
		})
		for _, s := range samples {
			agg.add(s, len(s.ClassRunning), s.ClassRunning)
		}
		if err := agg.Flush(); err != nil {
			t.Fatalf("window=%d: Flush: %v", window, err)
		}

		var want []WindowRow
		for i := 0; i < len(samples); i += window {
			end := i + window
			if end > len(samples) {
				end = len(samples)
			}
			chunk := append([]Sample(nil), samples[i:end]...) // Reduce sorts scratch, keep history intact
			want = append(want, Reduce(chunk))
		}
		if len(got) != len(want) {
			t.Fatalf("window=%d: %d rows streamed, want %d", window, len(got), len(want))
		}
		for i := range want {
			if !rowsEqual(got[i], want[i]) {
				t.Errorf("window=%d row %d:\n  streamed %+v\n  history  %+v", window, i, got[i], want[i])
			}
		}
		if agg.TotalRows() != len(want) {
			t.Errorf("window=%d: TotalRows=%d, want %d", window, agg.TotalRows(), len(want))
		}
		if rows := agg.Rows(); len(rows) != len(want) {
			t.Errorf("window=%d: %d retained rows, want %d", window, len(rows), len(want))
		}
	}
}

// TestAggregatorRingEviction closes more windows than the ring holds
// and checks the retained rows are exactly the most recent ones, in
// order, while TotalRows still counts everything.
func TestAggregatorRingEviction(t *testing.T) {
	total := windowRingCap + 137
	agg := NewAggregator(1, nil)
	for i := 0; i < total; i++ {
		agg.add(Sample{Time: int64(i), Running: i}, 0, nil)
	}
	if err := agg.Flush(); err != nil {
		t.Fatal(err)
	}
	if agg.TotalRows() != total {
		t.Fatalf("TotalRows=%d, want %d", agg.TotalRows(), total)
	}
	rows := agg.Rows()
	if len(rows) != windowRingCap {
		t.Fatalf("%d retained rows, want ring cap %d", len(rows), windowRingCap)
	}
	for i, row := range rows {
		wantTime := int64(total - windowRingCap + i)
		if row.Start != wantTime || row.End != wantTime {
			t.Fatalf("row %d covers ticks [%d,%d], want oldest-first sequence starting at %d",
				i, row.Start, row.End, total-windowRingCap)
		}
	}
}

// TestReduceStats pins the reduction arithmetic on a hand-checked
// window.
func TestReduceStats(t *testing.T) {
	samples := make([]Sample, 100)
	for i := range samples {
		samples[i] = Sample{Time: int64(i), Utilization: float64(i)} // 0..99
	}
	row := Reduce(samples)
	u := row.Utilization
	if u.Min != 0 || u.Max != 99 || math.Abs(u.Mean-49.5) > 1e-12 {
		t.Errorf("min/max/mean = %v/%v/%v, want 0/99/49.5", u.Min, u.Max, u.Mean)
	}
	// Nearest-rank p99 of 100 ordered values 0..99 is the 99th value.
	if u.P99 != 98 {
		t.Errorf("p99 = %v, want 98 (nearest rank ceil(0.99*100)-1 = index 98)", u.P99)
	}
	if row.Start != 0 || row.End != 99 || row.Samples != 100 {
		t.Errorf("row frame = [%d,%d] n=%d, want [0,99] n=100", row.Start, row.End, row.Samples)
	}
}

// TestTimelineWriter checks the CSV stream: header once, one flushed
// line per row, values in column order.
func TestTimelineWriter(t *testing.T) {
	var sb strings.Builder
	tw := NewTimelineWriter(&sb)
	rows := []WindowRow{
		{Start: 10, End: 20, Samples: 4, Utilization: WindowStat{Min: 0.25, Max: 0.75, Mean: 0.5, P99: 0.75}},
		{Start: 21, End: 30, Samples: 4, Suspended: WindowStat{Min: 1, Max: 9, Mean: 4, P99: 9}},
	}
	for _, row := range rows {
		if err := tw.Write(row); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d lines, want header + 2 rows:\n%s", len(lines), sb.String())
	}
	if lines[0] != timelineHeader {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "10,20,4,0.25,0.75,0.5,0.75,") {
		t.Errorf("row 1 = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "21,30,4,") || !strings.Contains(lines[2], ",1,9,4,9,") {
		t.Errorf("row 2 = %q", lines[2])
	}
}

// TestReduceClassRunning pins the per-class reduction: every class
// column is reduced by the same min/max/mean/p99 arithmetic as the
// fixed columns, short ClassRunning slices read as zero, and
// class-free samples produce a nil ClassRunning row (the byte-identity
// switch for non-scenario runs).
func TestReduceClassRunning(t *testing.T) {
	samples := make([]Sample, 10)
	for i := range samples {
		samples[i] = Sample{
			Time:         int64(i),
			Running:      3 * i,
			ClassRunning: []int{i, 2 * i},
		}
	}
	row := Reduce(samples)
	if len(row.ClassRunning) != 2 {
		t.Fatalf("%d class stats, want 2", len(row.ClassRunning))
	}
	for c, want := range []WindowStat{
		{Min: 0, Max: 9, Mean: 4.5, P99: 9},
		{Min: 0, Max: 18, Mean: 9, P99: 18},
	} {
		if row.ClassRunning[c] != want {
			t.Errorf("class %d stat = %+v, want %+v", c, row.ClassRunning[c], want)
		}
	}

	// A sample with a short (or absent) census counts as zero for the
	// missing classes rather than panicking.
	ragged := append([]Sample{}, samples...)
	ragged[3] = Sample{Time: 3, Running: 9} // no ClassRunning at all
	row = Reduce(ragged)
	if row.ClassRunning[0].Min != 0 || row.ClassRunning[1].Min != 0 {
		t.Errorf("ragged census min = %+v, want zeros", row.ClassRunning)
	}

	// Class-free windows must not grow a ClassRunning row.
	plain := Reduce(syntheticSamples(16, 3))
	if plain.ClassRunning != nil {
		t.Errorf("class-free reduction grew ClassRunning %+v", plain.ClassRunning)
	}
}

// TestTimelineWriterClassColumns checks the CSV surface of multi-class
// rows: class<i>_* column groups after the fixed header, one 4-column
// group per class per row — and that class-free rows render the exact
// pre-scenario header.
func TestTimelineWriterClassColumns(t *testing.T) {
	var sb strings.Builder
	tw := NewTimelineWriter(&sb)
	row := WindowRow{
		Start: 5, End: 9, Samples: 2,
		Running: WindowStat{Min: 3, Max: 7, Mean: 5, P99: 7},
		ClassRunning: []WindowStat{
			{Min: 1, Max: 3, Mean: 2, P99: 3},
			{Min: 2, Max: 4, Mean: 3, P99: 4},
		},
	}
	if err := tw.Write(row); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("%d lines, want header + row:\n%s", len(lines), sb.String())
	}
	wantHeader := timelineHeader +
		",class0_min,class0_max,class0_mean,class0_p99" +
		",class1_min,class1_max,class1_mean,class1_p99"
	if lines[0] != wantHeader {
		t.Errorf("header = %q\nwant     %q", lines[0], wantHeader)
	}
	if !strings.HasSuffix(lines[1], ",1,3,2,3,2,4,3,4") {
		t.Errorf("row = %q, want class groups ...,1,3,2,3,2,4,3,4", lines[1])
	}

	// Class-free writer output is byte-identical to the pre-scenario
	// format: the bare header, no trailing columns.
	var plain strings.Builder
	ptw := NewTimelineWriter(&plain)
	if err := ptw.Write(WindowRow{Start: 1, End: 2, Samples: 1}); err != nil {
		t.Fatal(err)
	}
	plines := strings.Split(strings.TrimRight(plain.String(), "\n"), "\n")
	if plines[0] != timelineHeader {
		t.Errorf("class-free header = %q", plines[0])
	}
	if strings.Contains(plain.String(), "class0") {
		t.Errorf("class-free timeline grew class columns:\n%s", plain.String())
	}
}

// TestWindowRecorderMatchesPlainRecorder drives a windowed and a plain
// recorder over identical observations (via direct Aggregator feeding
// of the plain recorder's samples) and proves the windowed aggregates
// equal the full-history reduction. This is the monitor half of the
// streamed-vs-materialized equivalence contract.
func TestWindowRecorderMatchesPlainRecorder(t *testing.T) {
	samples := syntheticSamples(513, 7)

	// Windowed path: samples stream through the aggregator.
	agg := NewAggregator(64, nil)
	for _, s := range samples {
		agg.add(s, len(s.ClassRunning), s.ClassRunning)
	}
	if err := agg.Flush(); err != nil {
		t.Fatal(err)
	}

	// Materialized path: full history, reduced in 64-sample chunks.
	rows := agg.Rows()
	for i, j := 0, 0; i < len(samples); i, j = i+64, j+1 {
		end := i + 64
		if end > len(samples) {
			end = len(samples)
		}
		chunk := append([]Sample(nil), samples[i:end]...)
		if want := Reduce(chunk); !rowsEqual(rows[j], want) {
			t.Fatalf("window %d: streamed %+v != history %+v", j, rows[j], want)
		}
	}
}
