package report

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"strings"
	"testing"

	"dreamsim/internal/metrics"
)

func sample() metrics.Report {
	return metrics.Report{
		TotalNodes: 200, TotalConfigs: 50, TotalTasks: 1000,
		AvgWastedAreaPerTask:      123.5,
		AvgRunningTimePerTask:     50000,
		AvgReconfigCountPerNode:   7.25,
		AvgReconfigTimePerTask:    13.2,
		AvgWaitingTimePerTask:     9999.75,
		AvgSchedulingStepsPerTask: 2500,
		TotalDiscardedTasks:       3,
		TotalSchedulerWorkload:    123456789,
		TotalUsedNodes:            200,
		TotalSimulationTime:       7654321,
	}
}

func TestMetricRowsOrderAndCount(t *testing.T) {
	rows := MetricRows(sample())
	if len(rows) != 10 {
		t.Fatalf("got %d rows, want 10 (Table I)", len(rows))
	}
	if rows[0].Name != "avg_wasted_area_per_task" || rows[9].Name != "total_simulation_time" {
		t.Fatalf("row order wrong: %v ... %v", rows[0].Name, rows[9].Name)
	}
	if rows[0].Value != 123.5 {
		t.Fatalf("value wrong: %v", rows[0].Value)
	}
}

func TestXMLRoundTrip(t *testing.T) {
	s := New("partial", "paper/best-fit", 42,
		map[string]string{"total_nodes": "200", "arrival": "uniform"},
		sample(), map[string]int64{"allocate": 900, "reconfigure": 100})
	var buf bytes.Buffer
	if err := WriteXML(&buf, s); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"<?xml", "simulation-report", `scenario="partial"`, `policy="paper/best-fit"`,
		`seed="42"`, `name="arrival" value="uniform"`, `name="allocate" count="900"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("XML missing %q:\n%s", want, out)
		}
	}
	var parsed Simulation
	if err := xml.NewDecoder(strings.NewReader(out)).Decode(&parsed); err != nil {
		t.Fatal(err)
	}
	if parsed.Scenario != "partial" || parsed.Seed != 42 ||
		len(parsed.Params) != 2 || len(parsed.Metrics) != 10 || len(parsed.Phases) != 2 {
		t.Fatalf("parsed: %+v", parsed)
	}
	// Params sorted by name.
	if parsed.Params[0].Name != "arrival" {
		t.Fatalf("params not sorted: %+v", parsed.Params)
	}
}

func TestTableIText(t *testing.T) {
	out := TableIText(sample())
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 12 { // header + rule + 10 metrics
		t.Fatalf("got %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(out, "avg_wasted_area_per_task") || !strings.Contains(out, "123.50") {
		t.Fatalf("missing content:\n%s", out)
	}
	// Large value uses compact form.
	if !strings.Contains(out, "1.235e+08") {
		t.Fatalf("compact large value missing:\n%s", out)
	}
}

func TestCompareText(t *testing.T) {
	a, b := sample(), sample()
	b.AvgWastedAreaPerTask = 50
	out := CompareText("full", a, "partial", b)
	if !strings.Contains(out, "full") || !strings.Contains(out, "partial") {
		t.Fatalf("headers missing:\n%s", out)
	}
	if !strings.Contains(out, "123.50") || !strings.Contains(out, "50") {
		t.Fatalf("values missing:\n%s", out)
	}
}

func TestCompact(t *testing.T) {
	cases := map[float64]string{
		100000:  "100000",
		1.5:     "1.50",
		2500000: "2.5e+06",
	}
	for in, want := range cases {
		if got := compact(in); got != want {
			t.Errorf("compact(%v) = %q, want %q", in, got, want)
		}
	}
}

// faultSample is sample() with fault outcomes, so the fault rows
// render too.
func faultSample() metrics.Report {
	r := sample()
	r.NodeCrashes = 4
	r.NodeRecoveries = 3
	r.AvgDowntimePerNode = 12.5
	r.TasksRetried = 9
	r.TasksLost = 1
	r.ReconfigFaults = 2
	r.WastedConfigTicks = 37
	return r
}

// TestCompactAgainstFmt pins appendCompact to the fmt verbs the old
// string-building renderer used.
func TestCompactAgainstFmt(t *testing.T) {
	values := []float64{0, 1, -1, 3, 123.5, 9999.75, 1e6 - 1, 1e6, 123456789,
		7654321, 2500, 0.004, -17.25, 1e12, 987654.321}
	for _, v := range values {
		var want string
		switch {
		case v >= 1e6:
			want = fmt.Sprintf("%.4g", v)
		case v == float64(int64(v)):
			want = fmt.Sprintf("%d", int64(v))
		default:
			want = fmt.Sprintf("%.2f", v)
		}
		if got := compact(v); got != want {
			t.Errorf("compact(%v) = %q, want %q", v, got, want)
		}
	}
}

// TestAppendZeroAlloc is the test-suite form of BenchmarkReport's
// gate: once the buffer is large enough, rendering Table I and the
// comparison table into it allocates nothing.
func TestAppendZeroAlloc(t *testing.T) {
	r := faultSample()
	buf := make([]byte, 0, 4096)
	for _, c := range []struct {
		name   string
		render func()
	}{
		{"AppendTableI", func() { buf = AppendTableI(buf[:0], r) }},
		{"AppendCompare", func() { buf = AppendCompare(buf[:0], "full", r, "partial", r) }},
	} {
		if allocs := testing.AllocsPerRun(100, c.render); allocs != 0 {
			t.Errorf("%s allocates %v allocs/op, want 0", c.name, allocs)
		}
	}
}

// BenchmarkReport measures the reused-buffer rendering core; the
// Append forms must report 0 allocs/op.
func BenchmarkReport(b *testing.B) {
	r := faultSample()
	b.Run("append-table", func(b *testing.B) {
		buf := make([]byte, 0, 1024)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendTableI(buf[:0], r)
		}
	})
	b.Run("append-compare", func(b *testing.B) {
		buf := make([]byte, 0, 2048)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = AppendCompare(buf[:0], "full", r, "partial", r)
		}
	})
}
