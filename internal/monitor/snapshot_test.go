package monitor

import (
	"errors"
	"testing"

	"dreamsim/internal/snapshot"
)

// TestMinSampleBytes pins the sample-count bound to the encoder: the
// smallest encoded sample is minSampleBytes long.
func TestMinSampleBytes(t *testing.T) {
	var w snapshot.Writer
	encodeSample(&w, new(Sample))
	if len(w.Bytes()) != minSampleBytes {
		t.Fatalf("smallest sample takes %d bytes, minSampleBytes is %d", len(w.Bytes()), minSampleBytes)
	}
}

// TestRestoreRejectsClassCensusMismatch: every restored sample and
// window row must carry one census entry per class, as Observe and
// Reduce build them.
func TestRestoreRejectsClassCensusMismatch(t *testing.T) {
	plain := NewRecorder(1)
	plain.Classes = 2
	plain.samples = []Sample{{ClassRunning: []int{1, 2, 3}}}
	windowed := NewWindowRecorder(1, 4, nil)
	windowed.Classes = 2
	windowed.agg.rows = []WindowRow{{ClassRunning: make([]WindowStat, 1)}}
	windowed.agg.total = 1
	for _, tc := range []struct {
		name       string
		saved, dst *Recorder
	}{
		{"plain sample", plain, &Recorder{Every: 1, Classes: 2}},
		{"window row", windowed, &Recorder{Every: 1, Classes: 2, agg: NewAggregator(4, nil)}},
	} {
		var w snapshot.Writer
		if err := tc.saved.EncodeState(&w); err != nil {
			t.Fatal(err)
		}
		err := tc.dst.RestoreState(snapshot.NewReader(w.Bytes()))
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: census of the wrong length gave %v, want ErrCorrupt", tc.name, err)
		}
	}
}
