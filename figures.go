package dreamsim

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"dreamsim/internal/plot"
)

// FigureID names one figure of the paper's evaluation section.
type FigureID string

// The nine evaluation figures of the paper.
const (
	Fig6a FigureID = "6a" // avg wasted area per task, 100 nodes
	Fig6b FigureID = "6b" // avg wasted area per task, 200 nodes
	Fig7a FigureID = "7a" // avg reconfiguration count per node, 100 nodes
	Fig7b FigureID = "7b" // avg reconfiguration count per node, 200 nodes
	Fig8a FigureID = "8a" // avg waiting time per task, 100 nodes
	Fig8b FigureID = "8b" // avg waiting time per task, 200 nodes
	Fig9a FigureID = "9a" // avg scheduling steps per task, 200 nodes
	Fig9b FigureID = "9b" // total scheduler workload, 200 nodes
	Fig10 FigureID = "10" // avg configuration time per task, 200 nodes
)

// figureSpec describes how to regenerate one figure.
type figureSpec struct {
	nodes  int
	title  string
	ylabel string
	metric func(Result) float64
	// expectPartialBelow records the paper's reported ordering: true
	// when the "with partial configuration" curve lies below the
	// "without" curve.
	expectPartialBelow bool
}

// figureRegistry maps each paper figure to its regeneration recipe.
var figureRegistry = map[FigureID]figureSpec{
	Fig6a: {100, "Fig. 6a: Average wasted area per task (100 nodes)", "area units",
		func(r Result) float64 { return r.AvgWastedAreaPerTask }, true},
	Fig6b: {200, "Fig. 6b: Average wasted area per task (200 nodes)", "area units",
		func(r Result) float64 { return r.AvgWastedAreaPerTask }, true},
	Fig7a: {100, "Fig. 7a: Average reconfiguration count per node (100 nodes)", "reconfigurations",
		func(r Result) float64 { return r.AvgReconfigCountPerNode }, false},
	Fig7b: {200, "Fig. 7b: Average reconfiguration count per node (200 nodes)", "reconfigurations",
		func(r Result) float64 { return r.AvgReconfigCountPerNode }, false},
	Fig8a: {100, "Fig. 8a: Average waiting time per task (100 nodes)", "timeticks",
		func(r Result) float64 { return r.AvgWaitingTimePerTask }, true},
	Fig8b: {200, "Fig. 8b: Average waiting time per task (200 nodes)", "timeticks",
		func(r Result) float64 { return r.AvgWaitingTimePerTask }, true},
	Fig9a: {200, "Fig. 9a: Average scheduling steps per task (200 nodes)", "search steps",
		func(r Result) float64 { return r.AvgSchedulingStepsPerTask }, true},
	Fig9b: {200, "Fig. 9b: Total scheduler workload (200 nodes)", "search steps",
		func(r Result) float64 { return float64(r.TotalSchedulerWorkload) }, true},
	Fig10: {200, "Fig. 10: Average configuration time per task (200 nodes)", "timeticks",
		func(r Result) float64 { return r.AvgReconfigTimePerTask }, false},
}

// FigureIDs lists all reproducible figures in paper order.
func FigureIDs() []FigureID {
	return []FigureID{Fig6a, Fig6b, Fig7a, Fig7b, Fig8a, Fig8b, Fig9a, Fig9b, Fig10}
}

// PaperTaskCounts is the task-count grid of the paper's x axes
// ("total tasks generated", 1000…100000).
var PaperTaskCounts = []int{1000, 2000, 5000, 10000, 20000, 50000, 100000}

// ScaledTaskCounts returns the paper grid capped at max tasks — handy
// for quick sweeps (e.g. ScaledTaskCounts(10000)).
func ScaledTaskCounts(max int) []int {
	var out []int
	for _, n := range PaperTaskCounts {
		if n <= max {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{max}
	}
	return out
}

// Figure is the regenerated data of one paper figure: the two curves
// ("without" = full reconfiguration, "with" = partial) over the task
// grid.
type Figure struct {
	ID         FigureID
	Title      string
	XLabel     string
	YLabel     string
	Nodes      int
	TaskCounts []int
	Without    []float64 // full reconfiguration
	With       []float64 // partial reconfiguration

	// PartialBelowExpected echoes the paper's reported ordering for
	// this figure, letting callers verify the reproduced shape.
	PartialBelowExpected bool
}

// RunFigure regenerates one figure over the given task grid (nil =
// PaperTaskCounts). All runs share base's parameters except node
// count (fixed by the figure), task count (the x axis) and scenario.
// The underlying cells run through the matrix engine, so
// base.Parallelism of them execute concurrently.
func RunFigure(id FigureID, taskCounts []int, base Params) (Figure, error) {
	spec, ok := figureRegistry[id]
	if !ok {
		return Figure{}, fmt.Errorf("dreamsim: unknown figure %q", id)
	}
	m, err := RunMatrix(base, []int{spec.nodes}, taskCounts, nil)
	if err != nil {
		return Figure{}, fmt.Errorf("dreamsim: figure %s: %w", id, err)
	}
	return m.Figure(id)
}

// ShapeHolds reports whether the paper's curve ordering holds at
// every sampled task count.
func (f Figure) ShapeHolds() bool {
	for i := range f.TaskCounts {
		if f.PartialBelowExpected && !(f.With[i] < f.Without[i]) {
			return false
		}
		if !f.PartialBelowExpected && !(f.With[i] > f.Without[i]) {
			return false
		}
	}
	return true
}

// CSV renders the figure data as comma-separated rows: a header,
// then one row per task count. Integral values print without
// decimals, every other value as %.4g.
func (f Figure) CSV() string {
	val := func(v float64) string {
		if v == float64(int64(v)) {
			return strconv.FormatInt(int64(v), 10)
		}
		return fmt.Sprintf("%.4g", v)
	}
	var b strings.Builder
	b.WriteString("x,without partial configuration,with partial configuration\n")
	for i, n := range f.TaskCounts {
		fmt.Fprintf(&b, "%d,%s,%s\n", n, val(f.Without[i]), val(f.With[i]))
	}
	return b.String()
}

// Plot renders the figure as an ASCII chart.
func (f Figure) Plot() string {
	xs := make([]float64, len(f.TaskCounts))
	for i, n := range f.TaskCounts {
		xs[i] = float64(n)
	}
	return plot.Chart{
		Title:  f.Title,
		XLabel: f.XLabel,
		YLabel: f.YLabel,
		Series: []plot.Series{
			{Name: "without partial configuration", Glyph: 'o', X: xs, Y: f.Without},
			{Name: "with partial configuration", Glyph: '+', X: xs, Y: f.With},
		},
	}.Render()
}

// Summary renders a one-line verdict: the ordering the paper reports
// and whether this regeneration reproduces it.
func (f Figure) Summary() string {
	rel := "partial < full"
	if !f.PartialBelowExpected {
		rel = "partial > full"
	}
	verdict := "REPRODUCED"
	if !f.ShapeHolds() {
		verdict = "NOT reproduced"
	}
	return fmt.Sprintf("Fig %-3s expected %s: %s", f.ID, rel, verdict)
}

// FigureTable renders the numeric figure data as a text table.
func (f Figure) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%-10s %18s %18s\n", f.Title, "tasks", "without partial", "with partial")
	for i, n := range f.TaskCounts {
		fmt.Fprintf(&b, "%-10d %18.2f %18.2f\n", n, f.Without[i], f.With[i])
	}
	return b.String()
}

// SortedPhaseNames returns the phase keys of a result in stable order
// (helper for deterministic printing).
func SortedPhaseNames(r Result) []string {
	out := make([]string, 0, len(r.Phases))
	for k := range r.Phases {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
