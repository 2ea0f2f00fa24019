package monitor

import (
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
		r.Observe(m, int64(i), 0)
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
	r.Observe(m, 5, 2) // blank system
	e, _ := m.Configure(m.Nodes()[0], m.Configs()[0])
	r.Observe(m, 10, 3) // one idle configured node
	_ = m.StartTask(e, model.NewTask(1, 1000, 0, 100, 0))
	r.Observe(m, 20, 4) // one busy node

	s := r.Samples()
	if len(s) != 3 {
		t.Fatalf("samples: %d", len(s))
	}
	if s[0].BlankNodes != 2 || s[0].Utilization != 0 || s[0].Suspended != 2 {
		t.Fatalf("blank sample: %+v", s[0])
	}
	if s[1].IdleNodes != 1 || s[1].WastedArea != 1000 {
		t.Fatalf("idle sample: %+v", s[1])
	}
	if s[2].BusyNodes != 1 || s[2].Running != 1 || s[2].WastedArea != 1000 {
		t.Fatalf("busy sample: %+v", s[2])
	}
	// Utilization: 1000 configured of 4000 total.
	if s[2].Utilization != 0.25 {
		t.Fatalf("utilization %v", s[2].Utilization)
	}
}

func TestRecorderTimeline(t *testing.T) {
	m := recorderRig(t)
	r := NewRecorder(1)
	if !strings.Contains(r.Timeline(40), "no samples") {
		t.Fatal("empty timeline wrong")
	}
	for i := 0; i < 100; i++ {
		r.Observe(m, int64(i*10), i%17)
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
