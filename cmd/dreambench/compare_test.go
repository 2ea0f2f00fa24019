package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func benchFile(t *testing.T, dir, name string, sweeps []sweep) string {
	t.Helper()
	r := report{Date: name, Sweeps: sweeps}
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareReportsFlagsRegressions(t *testing.T) {
	oldRep := report{Sweeps: []sweep{
		{Label: "sequential", CellsPerSec: 150},
		{Label: "parallel", CellsPerSec: 400},
		{Label: "fast-search", CellsPerSec: 150},
	}}
	newRep := report{Sweeps: []sweep{
		{Label: "sequential", CellsPerSec: 140},  // -6.7%: inside tolerance
		{Label: "parallel", CellsPerSec: 320},    // -20%: regression
		{Label: "fast-search", CellsPerSec: 180}, // improvement
		{Label: "tick-step", CellsPerSec: 12},    // new sweep: never a regression
	}}
	deltas := compareReports(oldRep, newRep, 0.10)
	if len(deltas) != 4 {
		t.Fatalf("got %d deltas, want 4", len(deltas))
	}
	byLabel := map[string]sweepDelta{}
	for _, d := range deltas {
		byLabel[d.Label] = d
	}
	if byLabel["sequential"].Regression {
		t.Error("6.7% slowdown flagged at 10% tolerance")
	}
	if !byLabel["parallel"].Regression {
		t.Error("20% slowdown not flagged at 10% tolerance")
	}
	if byLabel["fast-search"].Regression {
		t.Error("improvement flagged as regression")
	}
	if d := byLabel["tick-step"]; !d.Added || d.Regression {
		t.Errorf("new sweep misreported: %+v", d)
	}
}

func TestCompareReportsToleranceBoundary(t *testing.T) {
	oldRep := report{Sweeps: []sweep{{Label: "s", CellsPerSec: 100}}}
	at := report{Sweeps: []sweep{{Label: "s", CellsPerSec: 90}}}     // exactly -10%
	beyond := report{Sweeps: []sweep{{Label: "s", CellsPerSec: 89}}} // past it
	if compareReports(oldRep, at, 0.10)[0].Regression {
		t.Error("slowdown exactly at tolerance must pass")
	}
	if !compareReports(oldRep, beyond, 0.10)[0].Regression {
		t.Error("slowdown beyond tolerance must fail")
	}
}

func TestCompareReportsTasksPerSecUnit(t *testing.T) {
	oldRep := report{Sweeps: []sweep{
		{Label: "stream-large", Stream: true, Nodes: 2000, Tasks: 250000, TasksPerSec: 100000},
	}}
	newRep := report{Sweeps: []sweep{
		{Label: "stream-large", Stream: true, Nodes: 2000, Tasks: 250000, TasksPerSec: 80000}, // -20%
		{Label: "mp1/par2", CellsPerSec: 50},
	}}
	deltas := compareReports(oldRep, newRep, 0.10)
	byLabel := map[string]sweepDelta{}
	for _, d := range deltas {
		byLabel[d.Label] = d
	}
	large := byLabel["stream-large"]
	if large.Unit != "tasks/s" || !large.Regression {
		t.Errorf("large cell misreported: %+v", large)
	}
	if !strings.Contains(formatDelta(large), "tasks/s") {
		t.Errorf("formatted delta lacks tasks/s unit: %q", formatDelta(large))
	}
	if m := byLabel["mp1/par2"]; !m.Added || m.Unit != "cells/s" {
		t.Errorf("matrix sweep misreported: %+v", m)
	}
}

func TestCompareReportsEnvMismatchSkips(t *testing.T) {
	oldRep := report{Sweeps: []sweep{
		{Label: "sequential", CellsPerSec: 150, Procs: 8},
		{Label: "scan5000", ScansPerSec: 9000, Procs: 8},
		{Label: "legacy", CellsPerSec: 100}, // pre-stamping baseline: no env fields
	}}
	newRep := report{Sweeps: []sweep{
		{Label: "sequential", CellsPerSec: 40, Procs: 1}, // 1-CPU box: not comparable
		{Label: "scan5000", ScansPerSec: 5000, Procs: 8}, // same environment: a real regression
		{Label: "legacy", CellsPerSec: 50, Procs: 4},     // zero side stays comparable
	}}
	deltas := compareReports(oldRep, newRep, 0.10)
	byLabel := map[string]sweepDelta{}
	for _, d := range deltas {
		byLabel[d.Label] = d
	}
	if d := byLabel["sequential"]; d.EnvSkip == "" || d.Regression {
		t.Errorf("gomaxprocs mismatch not skipped: %+v", d)
	}
	if d := byLabel["scan5000"]; d.EnvSkip != "" || !d.Regression {
		t.Errorf("matching environments must compare: %+v", d)
	}
	if d := byLabel["scan5000"]; d.Unit != "scans/s" {
		t.Errorf("scan cell unit wrong: %+v", d)
	}
	if d := byLabel["legacy"]; d.EnvSkip != "" || !d.Regression {
		t.Errorf("unstamped baseline must stay comparable: %+v", d)
	}
	if out := formatDelta(byLabel["sequential"]); !strings.Contains(out, "skipped") {
		t.Errorf("formatted skip row lacks marker: %q", out)
	}
}

func TestRunCompareContendedSpeedupRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, r report) string {
		t.Helper()
		data, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old", report{Sweeps: []sweep{{Label: "sequential", CellsPerSec: 100}}})
	// Sub-1.0 speedup on a multi-core box is a regression even when
	// every shared sweep's throughput held steady.
	badPath := write("bad", report{
		CPUs:    8,
		Speedup: 0.87,
		Sweeps:  []sweep{{Label: "sequential", CellsPerSec: 100}},
	})
	// The same ratio on one CPU is contention, not a regression.
	onePath := write("onecpu", report{
		CPUs:         1,
		Speedup:      0.87,
		SpeedupLabel: "contended",
		Sweeps:       []sweep{{Label: "sequential", CellsPerSec: 100}},
	})

	var out strings.Builder
	code, err := runCompare(&out, oldPath, badPath, 0.10)
	if err != nil || code != 1 {
		t.Fatalf("multi-core sub-1.0 speedup: code %d err %v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("output missing speedup REGRESSION:\n%s", out.String())
	}
	out.Reset()
	if code, err = runCompare(&out, oldPath, onePath, 0.10); err != nil || code != 0 {
		t.Fatalf("single-CPU contended speedup flagged: code %d err %v\n%s", code, err, out.String())
	}
}

func TestCompareReportsMissingSweep(t *testing.T) {
	oldRep := report{Sweeps: []sweep{{Label: "gone", CellsPerSec: 50}}}
	deltas := compareReports(oldRep, report{}, 0.10)
	if len(deltas) != 1 || !deltas[0].Missing || deltas[0].Regression {
		t.Fatalf("missing sweep misreported: %+v", deltas)
	}
}

func TestRunCompareExitCodes(t *testing.T) {
	dir := t.TempDir()
	oldPath := benchFile(t, dir, "old", []sweep{{Label: "sequential", CellsPerSec: 150}})
	okPath := benchFile(t, dir, "ok", []sweep{{Label: "sequential", CellsPerSec: 149}})
	badPath := benchFile(t, dir, "bad", []sweep{{Label: "sequential", CellsPerSec: 100}})

	var out strings.Builder
	code, err := runCompare(&out, oldPath, okPath, 0.10)
	if err != nil || code != 0 {
		t.Fatalf("healthy compare: code %d err %v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "ok") {
		t.Fatalf("output missing verdict:\n%s", out.String())
	}

	out.Reset()
	code, err = runCompare(&out, oldPath, badPath, 0.10)
	if err != nil || code != 1 {
		t.Fatalf("regressed compare: code %d err %v\n%s", code, err, out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Fatalf("output missing REGRESSION:\n%s", out.String())
	}

	out.Reset()
	if code, err = runCompare(&out, filepath.Join(dir, "absent.json"), okPath, 0.10); err == nil || code == 0 {
		t.Fatal("unreadable old file must error with non-zero code")
	}
}
