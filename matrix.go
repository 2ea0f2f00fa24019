package dreamsim

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"dreamsim/internal/exec"
)

// Cell is one experiment point: both scenarios at one (nodes, tasks)
// coordinate, run over identical inputs.
type Cell struct {
	Nodes, Tasks  int
	Full, Partial Result
}

// Matrix is a full experiment sweep: every (nodes, tasks) coordinate
// the paper's figures draw from. Running the matrix once and
// extracting all nine figures from it avoids re-simulating shared
// coordinates (Figs. 6a/7a/8a share the 100-node runs; 6b/7b/8b/9a/
// 9b/10 share the 200-node runs).
type Matrix struct {
	NodeCounts []int
	TaskCounts []int
	Cells      []Cell // row-major: node count outer, task count inner

	// cellIdx maps (nodes, tasks) to the cell's index; built by
	// RunMatrix so CellAt answers in O(1) instead of scanning the grid
	// once per figure point.
	cellIdx map[[2]int]int
}

// validateGrid rejects coordinate grids that would produce duplicate
// (nodes, tasks) cells: every coordinate must map to exactly one cell
// or CellAt (and every figure drawn through it) becomes ambiguous.
func validateGrid(nodeCounts, taskCounts []int) error {
	seenN := make(map[int]bool, len(nodeCounts))
	for _, n := range nodeCounts {
		if seenN[n] {
			return fmt.Errorf("dreamsim: duplicate node count %d in matrix grid", n)
		}
		seenN[n] = true
	}
	seenT := make(map[int]bool, len(taskCounts))
	for _, t := range taskCounts {
		if seenT[t] {
			return fmt.Errorf("dreamsim: duplicate task count %d in matrix grid", t)
		}
		seenT[t] = true
	}
	return nil
}

// RunMatrix sweeps both scenarios over the cross product of node and
// task counts (nil grids default to the paper's {100, 200} ×
// PaperTaskCounts). Every (cell, scenario) pair is an independent
// simulation unit, so base.Parallelism of them run concurrently; the
// assembled matrix is byte-identical to a sequential sweep. onCell,
// when non-nil, observes each finished cell (progress reporting);
// with Parallelism > 1 cells may finish — and be observed — out of
// grid order, and onCell must be safe to call from the run's worker
// goroutines (calls themselves are serialised).
func RunMatrix(base Params, nodeCounts, taskCounts []int, onCell func(Cell)) (*Matrix, error) {
	if nodeCounts == nil {
		nodeCounts = []int{100, 200}
	}
	if taskCounts == nil {
		taskCounts = PaperTaskCounts
	}
	if err := validateGrid(nodeCounts, taskCounts); err != nil {
		return nil, err
	}
	if err := checkSweep(base); err != nil {
		return nil, err
	}
	n := len(nodeCounts) * len(taskCounts)
	m := &Matrix{NodeCounts: nodeCounts, TaskCounts: taskCounts, cellIdx: make(map[[2]int]int, n)}
	m.Cells = make([]Cell, 0, n)
	for _, nodes := range nodeCounts {
		for _, tasks := range taskCounts {
			m.cellIdx[[2]int{nodes, tasks}] = len(m.Cells)
			m.Cells = append(m.Cells, Cell{Nodes: nodes, Tasks: tasks})
		}
	}

	// Two units per cell: the full and partial halves fan out
	// independently (unit order full-then-partial per cell, so one
	// worker reproduces the historical sequential order exactly).
	pending := make([]atomic.Int32, len(m.Cells))
	for i := range pending {
		pending[i].Store(2)
	}
	var cellMu sync.Mutex
	workers := workersFor(base.Parallelism, 2*len(m.Cells))
	scratch := newScratchPool(workers)
	err := exec.DoWorkers(context.Background(), workers, 2*len(m.Cells),
		func(_ context.Context, w, u int) error {
			cell := &m.Cells[u/2]
			p := base
			p.Nodes = cell.Nodes
			p.Tasks = cell.Tasks
			p.PartialReconfig = u%2 == 1
			res, err := runScratch(p, scratch.get(w), nil, nil)
			if err != nil {
				return fmt.Errorf("dreamsim: matrix cell %d nodes/%d tasks: %w", cell.Nodes, cell.Tasks, err)
			}
			if p.PartialReconfig {
				//lint:sharedstate units 2k and 2k+1 share cell u/2 but write disjoint fields (Partial vs Full), and readers are ordered after both writes by the pending[u/2] atomic decrement
				cell.Partial = res
			} else {
				//lint:sharedstate units 2k and 2k+1 share cell u/2 but write disjoint fields (Partial vs Full), and readers are ordered after both writes by the pending[u/2] atomic decrement
				cell.Full = res
			}
			// The half that completes the cell reports it; the atomic
			// decrement orders it after the sibling's result write.
			if pending[u/2].Add(-1) == 0 && onCell != nil {
				cellMu.Lock()
				onCell(*cell)
				cellMu.Unlock()
			}
			return nil
		})
	scratch.release()
	if err != nil {
		return nil, err
	}
	return m, nil
}

// CellAt returns the cell at a coordinate, or nil if absent. Matrices
// built by RunMatrix answer from the coordinate map; hand-assembled
// ones fall back to a scan.
func (m *Matrix) CellAt(nodes, tasks int) *Cell {
	if m.cellIdx != nil {
		if i, ok := m.cellIdx[[2]int{nodes, tasks}]; ok {
			return &m.Cells[i]
		}
		return nil
	}
	for i := range m.Cells {
		if m.Cells[i].Nodes == nodes && m.Cells[i].Tasks == tasks {
			return &m.Cells[i]
		}
	}
	return nil
}

// Figure extracts one paper figure from the matrix. Every task count
// of the matrix must be present for the figure's node count.
func (m *Matrix) Figure(id FigureID) (Figure, error) {
	spec, ok := figureRegistry[id]
	if !ok {
		return Figure{}, fmt.Errorf("dreamsim: unknown figure %q", id)
	}
	fig := Figure{
		ID: id, Title: spec.title,
		XLabel: "total tasks generated", YLabel: spec.ylabel,
		Nodes: spec.nodes, TaskCounts: m.TaskCounts,
		PartialBelowExpected: spec.expectPartialBelow,
	}
	for _, tasks := range m.TaskCounts {
		cell := m.CellAt(spec.nodes, tasks)
		if cell == nil {
			return Figure{}, fmt.Errorf("dreamsim: matrix lacks cell %d nodes/%d tasks for figure %s",
				spec.nodes, tasks, id)
		}
		fig.Without = append(fig.Without, spec.metric(cell.Full))
		fig.With = append(fig.With, spec.metric(cell.Partial))
	}
	return fig, nil
}

// Figures extracts every paper figure the matrix covers (those whose
// node count is in the matrix's grid).
func (m *Matrix) Figures() ([]Figure, error) {
	var out []Figure
	for _, id := range FigureIDs() {
		spec := figureRegistry[id]
		found := false
		for _, n := range m.NodeCounts {
			if n == spec.nodes {
				found = true
				break
			}
		}
		if !found {
			continue
		}
		fig, err := m.Figure(id)
		if err != nil {
			return nil, err
		}
		out = append(out, fig)
	}
	return out, nil
}
