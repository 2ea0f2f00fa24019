package dreamsim

import (
	"encoding/json"
	"fmt"
	"io"
)

// The experiment store saves sweep results as JSON (dreamsweep -json)
// so expensive matrices (the 100 000-task cells take minutes) can be
// archived and compared byte for byte without re-simulation.

// storedMatrix is the serialised form: the public fields of every
// cell's results, without Result's unexported render state.
type storedMatrix struct {
	Version    int    `json:"version"`
	BaseSeed   uint64 `json:"base_seed"`
	NodeCounts []int  `json:"node_counts"`
	TaskCounts []int  `json:"task_counts"`
	Cells      []Cell `json:"cells"`
}

// storeVersion tags the on-disk format.
const storeVersion = 1

// SaveMatrix serialises a sweep matrix as indented JSON.
func SaveMatrix(w io.Writer, m *Matrix) error {
	if m == nil || len(m.Cells) == 0 {
		return fmt.Errorf("dreamsim: refusing to save an empty matrix")
	}
	sm := storedMatrix{
		Version:    storeVersion,
		NodeCounts: m.NodeCounts,
		TaskCounts: m.TaskCounts,
		Cells:      m.Cells,
	}
	if len(m.Cells) > 0 {
		sm.BaseSeed = m.Cells[0].Full.Seed
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sm)
}
