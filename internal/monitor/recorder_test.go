package monitor

import (
	"fmt"
	"strings"
	"testing"

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
	if r.Len() != 4 {
		t.Fatalf("samples %d, want 4", r.Len())
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
