package dreamsim_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"dreamsim"
)

// TestSaveMatrixJSON decodes what SaveMatrix writes and checks every
// cell's coordinates and metrics survive.
func TestSaveMatrixJSON(t *testing.T) {
	base := dreamsim.DefaultParams()
	base.Seed = 5
	m, err := dreamsim.RunMatrix(base, []int{30}, []int{200, 400}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dreamsim.SaveMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	var got struct {
		Version  int             `json:"version"`
		BaseSeed uint64          `json:"base_seed"`
		Cells    []dreamsim.Cell `json:"cells"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got.Version != 1 || got.BaseSeed != 5 {
		t.Fatalf("version %d, base seed %d", got.Version, got.BaseSeed)
	}
	if len(got.Cells) != len(m.Cells) {
		t.Fatalf("cells lost: %d != %d", len(got.Cells), len(m.Cells))
	}
	for i := range m.Cells {
		a, b := m.Cells[i], got.Cells[i]
		if a.Nodes != b.Nodes || a.Tasks != b.Tasks {
			t.Fatal("cell coordinates corrupted")
		}
		if a.Full.AvgWaitingTimePerTask != b.Full.AvgWaitingTimePerTask ||
			a.Partial.AvgWastedAreaPerTask != b.Partial.AvgWastedAreaPerTask {
			t.Fatal("cell metrics corrupted")
		}
	}
}

func TestSaveMatrixRejectsEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := dreamsim.SaveMatrix(&buf, &dreamsim.Matrix{}); err == nil {
		t.Fatal("empty matrix saved")
	}
	if err := dreamsim.SaveMatrix(&buf, nil); err == nil {
		t.Fatal("nil matrix saved")
	}
}
