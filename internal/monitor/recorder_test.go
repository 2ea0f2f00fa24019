package monitor

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dreamsim/internal/invariant"
	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
	"dreamsim/internal/resinfo"
)

func recorderRig(t *testing.T) *resinfo.Manager {
	t.Helper()
	nodes := []*model.Node{
		model.NewNode(0, 2000, true),
		model.NewNode(1, 2000, true),
	}
	configs := []*model.Config{{No: 0, ReqArea: 1000, ConfigTime: 10}}
	m, err := resinfo.New(nodes, configs, &metrics.Counters{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRecorderStride(t *testing.T) {
	m := recorderRig(t)
	r := NewRecorder(3)
	for i := 0; i < 10; i++ {
		r.Observe(int64(i), m.Census(), 0, 0, nil)
	}
	// Calls 1,4,7,10 (1-indexed) are sampled: 4 samples.
	if n := len(r.Samples()); n != 4 {
		t.Fatalf("samples %d, want 4", n)
	}
	if NewRecorder(0).Every != 1 {
		t.Fatal("stride floor broken")
	}
}

func TestRecorderSampleContents(t *testing.T) {
	m := recorderRig(t)
	r := NewRecorder(1)
	r.Classes = 2
	gauge := []int{0, 0}
	r.Observe(5, m.Census(), 0, 2, gauge) // blank system
	e, _ := m.Configure(m.Nodes()[0], m.Configs()[0])
	r.Observe(10, m.Census(), 0, 3, gauge) // one idle configured node
	_ = m.StartTask(e, model.NewTask(1, 1000, 0, 100, 0))
	gauge[1]++
	r.Observe(20, m.Census(), 1, 4, gauge) // one busy node
	if _, err := m.CrashNode(m.Nodes()[1]); err != nil {
		t.Fatal(err)
	}
	r.Observe(30, m.Census(), 1, 4, gauge[:1]) // a down node; class 1 past the gauge
	gauge[1]++                                 // a sample keeps its own census

	s := r.Samples()
	if len(s) != 4 {
		t.Fatalf("samples: %d", len(s))
	}
	if s[0].BlankNodes != 2 || s[0].Utilization != 0 || s[0].Suspended != 2 {
		t.Fatalf("blank sample: %+v", s[0])
	}
	if s[1].IdleNodes != 1 || s[1].WastedArea != 1000 {
		t.Fatalf("idle sample: %+v", s[1])
	}
	if s[2].BusyNodes != 1 || s[2].Running != 1 || s[2].WastedArea != 1000 ||
		s[2].ClassRunning[0] != 0 || s[2].ClassRunning[1] != 1 {
		t.Fatalf("busy sample: %+v", s[2])
	}
	// Utilization: 1000 configured of 4000 total.
	if s[2].Utilization != 0.25 {
		t.Fatalf("utilization %v", s[2].Utilization)
	}
	// A down node holds no configuration, so it samples as blank.
	if s[3].BlankNodes != 1 || s[3].BusyNodes != 1 || s[3].IdleNodes != 0 ||
		len(s[3].ClassRunning) != 2 || s[3].ClassRunning[1] != 0 {
		t.Fatalf("down-node sample: %+v", s[3])
	}
}

// TestUtilizationZeroTotal: a census of no fabric area samples zero
// utilization, not NaN.
func TestUtilizationZeroTotal(t *testing.T) {
	r := NewRecorder(1)
	r.Observe(0, resinfo.Census{}, 0, 0, nil)
	if u := r.Samples()[0].Utilization; u != 0 {
		t.Fatalf("zero-area utilization %v, want 0", u)
	}
}

func TestRecorderTimeline(t *testing.T) {
	m := recorderRig(t)
	r := NewRecorder(1)
	if !strings.Contains(r.Timeline(40), "no samples") {
		t.Fatal("empty timeline wrong")
	}
	for i := 0; i < 100; i++ {
		r.Observe(int64(i*10), m.Census(), 0, i%17, nil)
	}
	out := r.Timeline(40)
	if !strings.Contains(out, "fabric utilization") || !strings.Contains(out, "suspension queue") {
		t.Fatalf("timeline:\n%s", out)
	}
	if !strings.Contains(out, "peak 16") {
		t.Fatalf("peak missing:\n%s", out)
	}
	// Degenerate width clamps.
	if r.Timeline(0) == "" {
		t.Fatal("zero width broke")
	}
}

// TestWindowedObserveZeroAlloc: a windowed recorder keeps each buffer
// slot's per-class census from one window to the next, so once the
// first window has filled, a two-class sample allocates nothing.
func TestWindowedObserveZeroAlloc(t *testing.T) {
	if invariant.RaceEnabled {
		t.Skip("race instrumentation allocates")
	}
	m := recorderRig(t)
	r := NewWindowRecorder(1, 1024, nil)
	r.Classes = 2
	c, gauge := m.Census(), []int{3, 1}
	for i := 0; i < 1024; i++ { // fill and close the first window
		r.Observe(int64(i), c, 4, 0, gauge)
	}
	if avg := testing.AllocsPerRun(500, func() { r.Observe(2000, c, 4, 0, gauge) }); avg != 0 {
		t.Fatalf("windowed two-class Observe allocates: %.1f allocs/op", avg)
	}
}

// TestWindowedClassCensusMatchesPlain: the census slices the window
// buffer reuses give the rows a plain recorder's samples reduce to,
// window by window, also when the gauge is shorter than Classes.
func TestWindowedClassCensusMatchesPlain(t *testing.T) {
	const window = 16
	m := recorderRig(t)
	plain := NewRecorder(1)
	plain.Classes = 3
	win := NewWindowRecorder(1, window, nil)
	win.Classes = 3
	gauge := make([]int, 3)
	for i := 0; i < 100; i++ {
		gauge[i%3] = i * 7 % 11
		g := gauge
		if i%5 == 0 {
			g = gauge[:2]
		}
		plain.Observe(int64(i), m.Census(), i, 0, g)
		win.Observe(int64(i), m.Census(), i, 0, g)
	}
	if err := win.FinishWindows(); err != nil {
		t.Fatal(err)
	}
	samples, rows := plain.Samples(), win.Windows()
	if want := (len(samples) + window - 1) / window; len(rows) != want {
		t.Fatalf("%d windows, want %d", len(rows), want)
	}
	for j := range rows {
		chunk := samples[j*window : min((j+1)*window, len(samples))]
		if want := Reduce(chunk); !reflect.DeepEqual(rows[j], want) {
			t.Fatalf("window %d: streamed %+v != reduced %+v", j, rows[j], want)
		}
	}
}

// TestWindowedTimelineCountsWindows: a windowed recorder draws its
// sparklines from the window rows, and its count line names them so.
func TestWindowedTimelineCountsWindows(t *testing.T) {
	m := recorderRig(t)
	r := NewWindowRecorder(1, 10, nil)
	for i := 0; i < 95; i++ {
		r.Observe(int64(i*10), m.Census(), 0, i%17, nil)
	}
	if err := r.FinishWindows(); err != nil {
		t.Fatal(err)
	}
	if out := r.Timeline(40); !strings.HasSuffix(out, ", 10 windows\n") {
		t.Fatalf("windowed timeline does not count 10 windows:\n%s", out)
	}
}

func TestGlyphBounds(t *testing.T) {
	if glyph(-1) != ' ' || glyph(0) != ' ' {
		t.Fatal("low glyph wrong")
	}
	if glyph(1) != '@' || glyph(2) != '@' {
		t.Fatal("high glyph wrong")
	}
}

// BenchmarkObserve times one sample on a windowed recorder at two
// fabric sizes. A sample reads the node census and folds it into the
// open window; nothing walks the nodes, so both sizes should cost the
// same.
func BenchmarkObserve(b *testing.B) {
	for _, size := range []int{64, 5000} {
		b.Run(fmt.Sprintf("nodes=%d", size), func(b *testing.B) {
			nodes := make([]*model.Node, size)
			for i := range nodes {
				nodes[i] = model.NewNode(i, 2000+int64(i%7)*300, true)
			}
			configs := []*model.Config{{No: 0, ReqArea: 500, ConfigTime: 10}}
			m, err := resinfo.New(nodes, configs, &metrics.Counters{})
			if err != nil {
				b.Fatal(err)
			}
			running := 0
			for i, n := range nodes { // half configured, a quarter busy
				if i%2 == 0 {
					e, err := m.Configure(n, configs[0])
					if err != nil {
						b.Fatal(err)
					}
					if i%4 == 0 {
						running++
						if err := m.StartTask(e, model.NewTask(i, 500, 0, 100, 0)); err != nil {
							b.Fatal(err)
						}
					}
				}
			}
			r := NewWindowRecorder(1, 4096, nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.Observe(int64(i), m.Census(), running, i&63, nil)
			}
		})
	}
}
