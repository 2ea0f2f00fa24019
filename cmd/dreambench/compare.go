package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// sweepDelta is one sweep's old-vs-new comparison.
type sweepDelta struct {
	Label      string
	Old, New   float64 // throughput in Unit
	Unit       string  // "cells/s" for matrix sweeps, "tasks/s"/"scans/s" for single-run cells
	Change     float64 // fractional change, negative = slower
	Regression bool    // slowdown beyond the tolerance
	Missing    bool    // sweep present in old but absent from new
	Added      bool    // sweep present in new only
	EnvSkip    string  // non-empty: environments differ, numbers not comparable
}

// rate returns a sweep's throughput and its unit: matrix sweeps are
// compared in cells/sec, the large-scale streamed cell in tasks/sec,
// the placement-scan microbench in scans/sec.
func rate(s sweep) (float64, string) {
	if s.CellsPerSec > 0 {
		return s.CellsPerSec, "cells/s"
	}
	if s.ScansPerSec > 0 {
		return s.ScansPerSec, "scans/s"
	}
	return s.TasksPerSec, "tasks/s"
}

// envMismatch reports why two sweeps' throughputs are not comparable:
// a number measured at a different GOMAXPROCS is a different
// experiment, and diffing the two would flag phantom regressions (or
// mask real ones). A zero value means the side predates environment
// stamping and stays comparable — an old baseline must not invalidate
// every new comparison.
func envMismatch(o, n sweep) string {
	if o.Procs != 0 && n.Procs != 0 && o.Procs != n.Procs {
		return fmt.Sprintf("gomaxprocs %d vs %d", o.Procs, n.Procs)
	}
	return ""
}

// compareReports matches the two reports' sweeps by label and flags
// any whose new cells/sec falls below old*(1-tolerance). Sweeps only
// one side has are reported but never count as regressions — a grown
// benchmark must not fail its first comparison against an older
// baseline.
func compareReports(oldRep, newRep report, tolerance float64) []sweepDelta {
	newByLabel := make(map[string]sweep, len(newRep.Sweeps))
	for _, s := range newRep.Sweeps {
		newByLabel[s.Label] = s
	}
	var out []sweepDelta
	for _, o := range oldRep.Sweeps {
		oldRate, unit := rate(o)
		n, ok := newByLabel[o.Label]
		if !ok {
			out = append(out, sweepDelta{Label: o.Label, Old: oldRate, Unit: unit, Missing: true})
			continue
		}
		delete(newByLabel, o.Label)
		newRate, _ := rate(n)
		d := sweepDelta{Label: o.Label, Old: oldRate, New: newRate, Unit: unit}
		if skip := envMismatch(o, n); skip != "" {
			d.EnvSkip = skip
		} else if oldRate > 0 {
			d.Change = (newRate - oldRate) / oldRate
			d.Regression = newRate < oldRate*(1-tolerance)
		}
		out = append(out, d)
	}
	// Preserve new-report order for sweeps the old baseline lacks.
	for _, s := range newRep.Sweeps {
		if _, left := newByLabel[s.Label]; left {
			newRate, unit := rate(s)
			out = append(out, sweepDelta{Label: s.Label, New: newRate, Unit: unit, Added: true})
		}
	}
	return out
}

// formatDelta renders one comparison row.
func formatDelta(d sweepDelta) string {
	switch {
	case d.EnvSkip != "":
		return fmt.Sprintf("%-12s %8.1f -> %8.1f  %s  (skipped: %s)",
			d.Label, d.Old, d.New, d.Unit, d.EnvSkip)
	case d.Missing:
		return fmt.Sprintf("%-12s %8.1f -> (missing)  %s", d.Label, d.Old, d.Unit)
	case d.Added:
		return fmt.Sprintf("%-12s (new)    -> %8.1f  %s", d.Label, d.New, d.Unit)
	default:
		verdict := "ok"
		if d.Regression {
			verdict = "REGRESSION"
		}
		return fmt.Sprintf("%-12s %8.1f -> %8.1f  %s  (%+.1f%%)  %s",
			d.Label, d.Old, d.New, d.Unit, d.Change*100, verdict)
	}
}

// loadReport reads a BENCH_<date>.json file.
func loadReport(path string) (report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return report{}, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return report{}, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// runCompare implements `dreambench -compare old.json new.json`: it
// prints a per-sweep delta table and returns 1 when any sweep shared
// by both reports slowed down beyond the tolerance.
func runCompare(w *strings.Builder, oldPath, newPath string, tolerance float64) (int, error) {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return 1, err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return 1, err
	}
	deltas := compareReports(oldRep, newRep, tolerance)
	fmt.Fprintf(w, "%s (%s) vs %s (%s), tolerance %.0f%%\n",
		oldPath, oldRep.Date, newPath, newRep.Date, tolerance*100)
	code := 0
	for _, d := range deltas {
		fmt.Fprintln(w, formatDelta(d))
		if d.Regression {
			code = 1
		}
	}
	// A parallel sweep slower than the sequential one on a machine
	// with real parallelism is a scheduling regression no per-sweep
	// throughput delta catches (both sweeps may have slowed together).
	// Single-CPU measurements are exempt: there the ratio only
	// documents contention, and the report labels it as such.
	if newRep.CPUs > 1 && newRep.Speedup != 0 && newRep.Speedup < 1 {
		fmt.Fprintf(w, "%-12s parallel_speedup %.3f < 1 on %d CPUs  REGRESSION\n",
			"speedup", newRep.Speedup, newRep.CPUs)
		code = 1
	}
	return code, nil
}
