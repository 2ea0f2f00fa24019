// Package report implements DReAMSim's output subsystem (paper §III):
// the XML simulation report accumulating the statistics of each run,
// plus fixed-width text rendering of the Table I metrics and CSV
// emission for figure series.
package report

import (
	"encoding/xml"
	"io"
	"sort"
	"strconv"

	"dreamsim/internal/metrics"
)

// Param is one simulation parameter echoed into the report.
type Param struct {
	Name  string `xml:"name,attr"`
	Value string `xml:"value,attr"`
}

// Metric is one Table I metric row.
type Metric struct {
	Name  string  `xml:"name,attr"`
	Value float64 `xml:"value,attr"`
}

// Phase is one scheduling-phase placement counter.
type Phase struct {
	Name  string `xml:"name,attr"`
	Count int64  `xml:"count,attr"`
}

// Simulation is the XML report root (<simulation-report>).
type Simulation struct {
	XMLName  xml.Name `xml:"simulation-report"`
	Scenario string   `xml:"scenario,attr"` // "partial" / "full"
	Policy   string   `xml:"policy,attr"`
	Seed     uint64   `xml:"seed,attr"`

	Params  []Param  `xml:"parameters>param"`
	Metrics []Metric `xml:"metrics>metric"`
	Phases  []Phase  `xml:"phases>phase"`
}

// New assembles a Simulation report from a metrics report, the
// parameter echo and the per-phase placement counts.
func New(scenario, policy string, seed uint64, params map[string]string,
	rep metrics.Report, phases map[string]int64) Simulation {

	s := Simulation{Scenario: scenario, Policy: policy, Seed: seed}
	for _, k := range sortedKeys(params) {
		s.Params = append(s.Params, Param{Name: k, Value: params[k]})
	}
	for _, m := range MetricRows(rep) {
		s.Metrics = append(s.Metrics, m)
	}
	if rep.HasFaults() {
		s.Metrics = append(s.Metrics, FaultMetricRows(rep)...)
	}
	for _, k := range sortedKeysI64(phases) {
		s.Phases = append(s.Phases, Phase{Name: k, Count: phases[k]})
	}
	return s
}

// MetricRows flattens a metrics.Report into named rows in Table I
// order.
func MetricRows(r metrics.Report) []Metric {
	return appendMetricRows(make([]Metric, 0, 10), r)
}

// appendMetricRows is MetricRows into a caller-owned slice, so a
// reused scratch renders without allocating the row set.
func appendMetricRows(dst []Metric, r metrics.Report) []Metric {
	return append(dst,
		Metric{"avg_wasted_area_per_task", r.AvgWastedAreaPerTask},
		Metric{"avg_running_time_per_task", r.AvgRunningTimePerTask},
		Metric{"avg_reconfig_count_per_node", r.AvgReconfigCountPerNode},
		Metric{"avg_reconfig_time_per_task", r.AvgReconfigTimePerTask},
		Metric{"avg_waiting_time_per_task", r.AvgWaitingTimePerTask},
		Metric{"avg_scheduling_steps_per_task", r.AvgSchedulingStepsPerTask},
		Metric{"total_discarded_tasks", float64(r.TotalDiscardedTasks)},
		Metric{"total_scheduler_workload", float64(r.TotalSchedulerWorkload)},
		Metric{"total_used_nodes", float64(r.TotalUsedNodes)},
		Metric{"total_simulation_time", float64(r.TotalSimulationTime)},
	)
}

// FaultMetricRows flattens the fault-injection outcomes into named
// rows. Callers append them after MetricRows only when
// r.HasFaults(), which keeps fault-free reports byte-identical to
// those of builds without the fault subsystem.
func FaultMetricRows(r metrics.Report) []Metric {
	return appendFaultMetricRows(make([]Metric, 0, 7), r)
}

// appendFaultMetricRows is FaultMetricRows into a caller-owned slice.
func appendFaultMetricRows(dst []Metric, r metrics.Report) []Metric {
	return append(dst,
		Metric{"node_crashes", float64(r.NodeCrashes)},
		Metric{"node_recoveries", float64(r.NodeRecoveries)},
		Metric{"avg_downtime_per_node", r.AvgDowntimePerNode},
		Metric{"tasks_retried", float64(r.TasksRetried)},
		Metric{"tasks_lost", float64(r.TasksLost)},
		Metric{"reconfig_faults", float64(r.ReconfigFaults)},
		Metric{"wasted_config_ticks", float64(r.WastedConfigTicks)},
	)
}

// ClassMetricRows flattens a per-traffic-class breakdown into named
// rows ("class_<name>_<metric>"). It returns nil for an empty slice,
// so single-class reports gain no rows.
func ClassMetricRows(classes []metrics.ClassStats) []Metric {
	if len(classes) == 0 {
		return nil
	}
	out := make([]Metric, 0, 6*len(classes))
	for _, c := range classes {
		prefix := "class_" + c.Name + "_"
		out = append(out,
			Metric{prefix + "generated", float64(c.Generated)},
			Metric{prefix + "completed", float64(c.Completed)},
			Metric{prefix + "discarded", float64(c.Discarded)},
			Metric{prefix + "lost", float64(c.Lost)},
			Metric{prefix + "avg_waiting_time", c.AvgWaitingTime},
			Metric{prefix + "avg_running_time", c.AvgRunningTime},
		)
	}
	return out
}

// ClassTableText renders the per-class breakdown as a fixed-width
// table, one row per class, for appending below Table I. Empty input
// renders nothing.
func ClassTableText(classes []metrics.ClassStats) string {
	if len(classes) == 0 {
		return ""
	}
	var dst []byte
	dst = appendCell(dst, "traffic class", -16)
	dst = appendCell(dst, "generated", 12)
	dst = appendCell(dst, "completed", 12)
	dst = appendCell(dst, "discarded", 12)
	dst = appendCell(dst, "lost", 8)
	dst = appendCell(dst, "avg wait", 12)
	dst = appendCell(dst, "avg run", 14)
	dst = append(dst, '\n')
	dst = append(dst, dashes[:72]...)
	dst = append(dst, '\n')
	for _, c := range classes {
		dst = appendCell(dst, c.Name, -16)
		dst = appendClassCell(dst, float64(c.Generated), 12)
		dst = appendClassCell(dst, float64(c.Completed), 12)
		dst = appendClassCell(dst, float64(c.Discarded), 12)
		dst = appendClassCell(dst, float64(c.Lost), 8)
		dst = appendClassCell(dst, c.AvgWaitingTime, 12)
		dst = appendClassCell(dst, c.AvgRunningTime, 14)
		dst = append(dst, '\n')
	}
	return string(dst)
}

// appendClassCell renders compact(v) right-justified to width.
func appendClassCell(dst []byte, v float64, width int) []byte {
	var scratch [32]byte
	num := appendCompact(scratch[:0], v)
	dst = append(dst, ' ')
	for i := len(num); i < width; i++ {
		dst = append(dst, ' ')
	}
	return append(dst, num...)
}

// WriteXML serialises the report with indentation and an XML header.
func WriteXML(w io.Writer, s Simulation) error {
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(s); err != nil {
		return err
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// TableIText renders the Table I metrics as a fixed-width text table.
func TableIText(r metrics.Report) string {
	return string(AppendTableI(nil, r))
}

// CompareText renders two scenario reports side by side (the paper's
// with/without-partial comparisons).
func CompareText(nameA string, a metrics.Report, nameB string, b metrics.Report) string {
	return string(AppendCompare(nil, nameA, a, nameB, b))
}

// dashes backs the separator rows (the longest is CompareText's 72).
const dashes = "------------------------------------------------------------------------"

// AppendTableI appends TableIText's output to dst and returns the
// extended buffer — the allocation-free core of the text rendering.
func AppendTableI(dst []byte, r metrics.Report) []byte {
	dst = appendCell(dst, "performance metric", -34)
	dst = appendCell(dst, "value", 18)
	dst = append(dst, '\n')
	dst = append(dst, dashes[:53]...)
	dst = append(dst, '\n')
	var scratch [17]Metric
	for _, m := range appendRowsForced(scratch[:0], r, r.HasFaults()) {
		dst = appendCell(dst, m.Name, -34)
		dst = appendCompactCell(dst, m.Value)
		dst = append(dst, '\n')
	}
	return dst
}

// AppendCompare appends CompareText's output to dst and returns the
// extended buffer.
func AppendCompare(dst []byte, nameA string, a metrics.Report, nameB string, b metrics.Report) []byte {
	dst = appendCell(dst, "performance metric", -34)
	dst = appendCell(dst, nameA, 18)
	dst = appendCell(dst, nameB, 18)
	dst = append(dst, '\n')
	dst = append(dst, dashes[:72]...)
	dst = append(dst, '\n')
	var sa, sb [17]Metric
	rowsA := appendRowsForced(sa[:0], a, a.HasFaults() || b.HasFaults())
	rowsB := appendRowsForced(sb[:0], b, a.HasFaults() || b.HasFaults())
	for i := range rowsA {
		dst = appendCell(dst, rowsA[i].Name, -34)
		dst = appendCompactCell(dst, rowsA[i].Value)
		dst = appendCompactCell(dst, rowsB[i].Value)
		dst = append(dst, '\n')
	}
	return dst
}

// appendRowsForced collects the Table I rows (fault rows appended
// when faults is true) into dst without allocating a fresh slice per
// render.
func appendRowsForced(dst []Metric, r metrics.Report, faults bool) []Metric {
	dst = appendMetricRows(dst, r)
	if faults {
		dst = appendFaultMetricRows(dst, r)
	}
	return dst
}

// appendCell appends s padded to the fmt "%Ns" convention: positive
// width right-justifies, negative left-justifies, and a leading space
// separates it from the previous cell exactly where the old format
// strings ("%-34s %18s...") put one.
func appendCell(dst []byte, s string, width int) []byte {
	if width > 0 {
		dst = append(dst, ' ') // the separator the format string had
		for i := len(s); i < width; i++ {
			dst = append(dst, ' ')
		}
		return append(dst, s...)
	}
	dst = append(dst, s...)
	for i := len(s); i < -width; i++ {
		dst = append(dst, ' ')
	}
	return dst
}

// appendCompactCell renders compact(v) right-justified to 18 columns
// without going through a string.
func appendCompactCell(dst []byte, v float64) []byte {
	var scratch [32]byte
	num := appendCompact(scratch[:0], v)
	dst = append(dst, ' ')
	for i := len(num); i < 18; i++ {
		dst = append(dst, ' ')
	}
	return append(dst, num...)
}

// compact formats a value without trailing decimal noise; values of
// a million and beyond render in scientific notation like the paper's
// figure axes.
func compact(v float64) string {
	var scratch [32]byte
	return string(appendCompact(scratch[:0], v))
}

// appendCompact is compact into a caller-owned buffer. strconv's
// 'g'/'f' verbs produce exactly what fmt's %.4g/%.2f did — fmt
// delegates float formatting to strconv with the same precision.
func appendCompact(dst []byte, v float64) []byte {
	if v >= 1e6 {
		return strconv.AppendFloat(dst, v, 'g', 4, 64)
	}
	if v == float64(int64(v)) {
		return strconv.AppendInt(dst, int64(v), 10)
	}
	return strconv.AppendFloat(dst, v, 'f', 2, 64)
}

func sortedKeys(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func sortedKeysI64(m map[string]int64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
