package dreamsim

import (
	"fmt"
	"slices"
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
}

// GridUnits is the unit model of a paired sweep over a (nodes, tasks)
// grid, which RunMatrix and dreamserve's jobs share so that one job
// reproduces the library sweep exactly. The grid's cells are its
// coordinates in row-major order, node counts outer; cell i runs base
// with the cell's counts under full reconfiguration as unit 2i and
// under partial reconfiguration as unit 2i+1. unit lowers unit u, for
// u in [0, units), onto its run parameters. Every count must be at
// least 1 and appear once, so each coordinate names exactly one cell;
// the error names the first count that breaks this, and callers add
// their own prefix.
func GridUnits(base Params, nodeCounts, taskCounts []int) (units int, unit func(u int) Params, err error) {
	for _, c := range []struct {
		name   string
		counts []int
	}{{"node", nodeCounts}, {"task", taskCounts}} {
		seen := make(map[int]bool, len(c.counts))
		for _, n := range c.counts {
			switch {
			case n < 1:
				return 0, nil, fmt.Errorf("%s count %d", c.name, n)
			case seen[n]:
				return 0, nil, fmt.Errorf("duplicate %s count %d", c.name, n)
			}
			seen[n] = true
		}
	}
	unit = func(u int) Params {
		p := base
		p.Nodes = nodeCounts[u/2/len(taskCounts)]
		p.Tasks = taskCounts[u/2%len(taskCounts)]
		p.PartialReconfig = u%2 == 1
		return p
	}
	return 2 * len(nodeCounts) * len(taskCounts), unit, nil
}

// RunMatrix sweeps both scenarios over the cross product of node and
// task counts (nil grids default to the paper's {100, 200} ×
// PaperTaskCounts), in GridUnits' unit order. Every unit is an
// independent simulation, so base.Parallelism of them run
// concurrently; the assembled matrix is byte-identical to a
// sequential sweep. onCell, when non-nil, observes each finished cell
// (progress reporting); with Parallelism > 1 cells may finish — and be
// observed — out of grid order, and onCell must be safe to call from
// the run's worker goroutines (calls themselves are serialised).
func RunMatrix(base Params, nodeCounts, taskCounts []int, onCell func(Cell)) (*Matrix, error) {
	if nodeCounts == nil {
		nodeCounts = []int{100, 200}
	}
	if taskCounts == nil {
		taskCounts = PaperTaskCounts
	}
	n, unit, err := GridUnits(base, nodeCounts, taskCounts)
	if err != nil {
		return nil, fmt.Errorf("dreamsim: %w", err)
	}
	m := &Matrix{NodeCounts: nodeCounts, TaskCounts: taskCounts, Cells: make([]Cell, n/2)}
	units := make([]sweepUnit, n)
	for u := range units {
		p := unit(u)
		units[u] = sweepUnit{p, fmt.Sprintf("matrix cell %d nodes/%d tasks", p.Nodes, p.Tasks)}
		m.Cells[u/2].Nodes, m.Cells[u/2].Tasks = p.Nodes, p.Tasks
	}
	var onPair func(int, Result, Result)
	if onCell != nil {
		onPair = func(i int, full, partial Result) {
			c := m.Cells[i]
			c.Full, c.Partial = full, partial
			onCell(c)
		}
	}
	res, err := sweep(base.Parallelism, units, onPair)
	if err != nil {
		return nil, err
	}
	for i := range m.Cells {
		m.Cells[i].Full, m.Cells[i].Partial = res[2*i], res[2*i+1]
	}
	return m, nil
}

// CellAt returns the cell at a coordinate, or nil if absent. Cells are
// in RunMatrix's row-major order, node counts outer.
func (m *Matrix) CellAt(nodes, tasks int) *Cell {
	i, j := slices.Index(m.NodeCounts, nodes), slices.Index(m.TaskCounts, tasks)
	if i < 0 || j < 0 || i*len(m.TaskCounts)+j >= len(m.Cells) {
		return nil
	}
	return &m.Cells[i*len(m.TaskCounts)+j]
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
		if !slices.Contains(m.NodeCounts, figureRegistry[id].nodes) {
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
