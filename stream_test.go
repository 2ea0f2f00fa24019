package dreamsim

import (
	"bytes"
	"os"
	"reflect"
	"testing"

	"dreamsim/internal/core"
	"dreamsim/internal/monitor"
	"dreamsim/internal/workload"
)

// classedSource gives a replayed task slice its scenario's class
// names, so a multi-class replay keeps its per-class accounting.
type classedSource struct {
	workload.TaskSource
	names []string
}

func (c classedSource) ClassNames() []string { return c.names }

// replayRun runs p over the exact tasks its own run would draw, drained
// up front into a SliceSource. A SliceSource has no free list, so the
// replay keeps every task struct alive: it is the reference for the
// pooled source, which recycles each struct once its task finishes.
func replayRun(t *testing.T, p Params) Result {
	t.Helper()
	cp, err := p.coreParams()
	if err != nil {
		t.Fatal(err)
	}
	drained, err := core.New(cp)
	if err != nil {
		t.Fatal(err)
	}
	src, err := workload.SliceSource(workload.Drain(drained.Source()))
	if err != nil {
		t.Fatal(err)
	}
	cp.Source = src
	if cs, ok := drained.Source().(workload.ClassedSource); ok {
		cp.Source = classedSource{src, cs.ClassNames()}
	}
	s, err := core.New(cp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return wrap(res, cp)
}

// requireSameRun fails unless a and b are deeply equal Results with
// byte-identical XML reports.
func requireSameRun(t *testing.T, what string, a, b Result) {
	t.Helper()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("%s: results diverged\npooled   %+v\nreplayed %+v", what, a, b)
	}
	var ax, bx bytes.Buffer
	if err := a.WriteXML(&ax); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteXML(&bx); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ax.Bytes(), bx.Bytes()) {
		t.Errorf("%s: XML reports not byte-identical", what)
	}
}

// TestStreamRunEquivalence is the public half of the recycling
// contract: Run, whose generator recycles each task struct once the
// task finishes, must produce a Result deeply equal, and an XML report
// byte-identical, to the same tasks replayed from a SliceSource, at
// several scales and in both reconfiguration scenarios.
func TestStreamRunEquivalence(t *testing.T) {
	for _, seed := range []uint64{1, 5} {
		for _, partial := range []bool{false, true} {
			for _, tasks := range []int{500, 1500} {
				p := DefaultParams()
				p.Nodes = 60
				p.Tasks = tasks
				p.PartialReconfig = partial
				p.Seed = seed

				pooled, err := Run(p)
				if err != nil {
					t.Fatal(err)
				}
				requireSameRun(t, "run", pooled, replayRun(t, p))
			}
		}
	}
}

// TestStreamCompareWorkerEquivalence covers the fan-out surface:
// Compare, sequentially or with concurrent workers sharing donated run
// contexts, must return the pair of replayed runs.
func TestStreamCompareWorkerEquivalence(t *testing.T) {
	p := DefaultParams()
	p.Nodes = 50
	p.Tasks = 800
	fp, pp := p, p
	fp.PartialReconfig, pp.PartialReconfig = false, true
	fullRef, partRef := replayRun(t, fp), replayRun(t, pp)
	for _, workers := range []int{1, 4} {
		p.Parallelism = workers
		full, part, err := Compare(p)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fullRef, full) || !reflect.DeepEqual(partRef, part) {
			t.Errorf("workers=%d: Compare diverged from the replayed runs", workers)
		}
	}
}

// TestWindowedAggregatesMatchFullHistory runs the same simulation
// twice — once retaining the full monitoring series, once with
// rolling-window aggregation — and checks every window row equals the
// reduction of the corresponding full-history chunk.
func TestWindowedAggregatesMatchFullHistory(t *testing.T) {
	const window = 32
	p := DefaultParams()
	p.Nodes = 30
	p.Tasks = 400
	p.PartialReconfig = true
	p.SampleEvery = 1

	plain, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Timeline) == 0 {
		t.Fatal("plain run recorded no samples")
	}

	p.WindowSamples = window
	windowed, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(windowed.Timeline) != 0 {
		t.Fatal("windowed run retained raw samples")
	}
	wantRows := (len(plain.Timeline) + window - 1) / window
	if windowed.WindowsTotal != wantRows || len(windowed.Windows) != wantRows {
		t.Fatalf("windowed run closed %d rows (retained %d), want %d for %d samples",
			windowed.WindowsTotal, len(windowed.Windows), wantRows, len(plain.Timeline))
	}

	for i := 0; i < wantRows; i++ {
		lo := i * window
		hi := lo + window
		if hi > len(plain.Timeline) {
			hi = len(plain.Timeline)
		}
		chunk := make([]monitor.Sample, 0, hi-lo)
		for _, pt := range plain.Timeline[lo:hi] {
			chunk = append(chunk, monitor.Sample{
				Time:        pt.Time,
				Running:     pt.RunningTasks,
				Suspended:   pt.Suspended,
				WastedArea:  pt.WastedArea,
				Utilization: pt.Utilization,
			})
		}
		want := monitor.Reduce(chunk)
		got := windowed.Windows[i]
		if got.Start != want.Start || got.End != want.End || got.Samples != want.Samples ||
			got.Utilization != publicStat(want.Utilization) ||
			got.Running != publicStat(want.Running) ||
			got.Suspended != publicStat(want.Suspended) ||
			got.WastedArea != publicStat(want.WastedArea) {
			t.Errorf("window %d: streamed aggregate %+v != full-history reduction %+v", i, got, want)
		}
	}
}

func publicStat(s monitor.WindowStat) WindowStat {
	return WindowStat{Min: s.Min, Max: s.Max, Mean: s.Mean, P99: s.P99}
}

// TestStreamedTimelineCSV exercises the incremental timeline writer
// end to end: a run with TimelinePath must leave a CSV whose row count
// matches the run's closed windows.
func TestStreamedTimelineCSV(t *testing.T) {
	path := t.TempDir() + "/timeline.csv"
	p := DefaultParams()
	p.Nodes = 30
	p.Tasks = 300
	p.PartialReconfig = true
	p.SampleEvery = 1
	p.WindowSamples = 16
	p.TimelinePath = path

	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Count(data, []byte("\n"))
	if lines != res.WindowsTotal+1 { // header + one line per closed window
		t.Fatalf("timeline CSV has %d lines, want %d windows + header", lines, res.WindowsTotal)
	}
}
