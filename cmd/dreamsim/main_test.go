package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dreamsim"
)

// childEnv switches the test binary into the dreamsim command itself,
// so the tests below drive its flag routing and exit codes.
const childEnv = "DREAMSIM_CMD_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCmd runs dreamsim with args in a child process and returns its
// combined output and exit status.
func runCmd(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		return out.String(), exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), 0
}

// writeTrace writes the task stream of a 40-node, 300-task run.
func writeTrace(t *testing.T) string {
	t.Helper()
	p := dreamsim.DefaultParams()
	p.Nodes, p.Tasks = 40, 300
	var buf bytes.Buffer
	if err := dreamsim.GenerateTrace(&buf, p); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.trace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareReplicatePrintsPairedTable: -compare with -replicate
// prints the paired full-vs-partial table, not one scenario's stats.
func TestCompareReplicatePrintsPairedTable(t *testing.T) {
	out, code := runCmd(t, "-nodes", "40", "-tasks", "300", "-compare", "-replicate", "3", "-parallel", "1")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out)
	}
	for _, want := range []string{"paired over 3 seeds", "partial mean", "consistent", "avg_wasted_area_per_task"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

// TestTraceRejectsSweepFlags: a trace replays one run, so -compare
// and -replicate, which would run the synthetic workload instead, are
// usage errors.
func TestTraceRejectsSweepFlags(t *testing.T) {
	trace := writeTrace(t)
	for _, flag := range [][]string{{"-compare"}, {"-replicate", "2"}} {
		args := append([]string{"-nodes", "40", "-tasks", "300", "-trace", trace}, flag...)
		if out, code := runCmd(t, args...); code != 2 {
			t.Errorf("%v: exit %d, want 2:\n%s", flag, code, out)
		}
	}
}

// TestTraceRunMonitors: a trace-driven run honours the monitoring
// flags, as a synthetic one does.
func TestTraceRunMonitors(t *testing.T) {
	trace := writeTrace(t)
	out, code := runCmd(t, "-nodes", "40", "-tasks", "300", "-trace", trace, "-timeline")
	if code != 0 || !strings.Contains(out, "fabric utilization") {
		t.Fatalf("-timeline: exit %d, no sparklines:\n%s", code, out)
	}
	csv := filepath.Join(t.TempDir(), "t.csv")
	out, code = runCmd(t, "-nodes", "40", "-tasks", "300", "-trace", trace, "-window", "16", "-timeline-out", csv)
	if code != 0 {
		t.Fatalf("-timeline-out: exit %d:\n%s", code, out)
	}
	rows, err := os.ReadFile(csv)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(rows), "\n"); n < 2 {
		t.Fatalf("timeline file holds %d lines, want a header and rows", n)
	}
}

// TestSweepsRejectTimelineOut: both halves of -compare, every seed of
// -replicate, and both scenarios of each with -compare -replicate would
// write the one timeline file, so the run fails before creating it.
func TestSweepsRejectTimelineOut(t *testing.T) {
	for _, flags := range [][]string{{"-compare"}, {"-replicate", "2"}, {"-compare", "-replicate", "2"}} {
		csv := filepath.Join(t.TempDir(), "t.csv")
		args := append([]string{"-nodes", "40", "-tasks", "300", "-parallel", "1", "-timeline-out", csv}, flags...)
		out, code := runCmd(t, args...)
		if code == 0 {
			t.Errorf("%v: exit 0:\n%s", flags, out)
		}
		if _, err := os.Stat(csv); !os.IsNotExist(err) {
			t.Errorf("%v: the rejected run created %s (stat: %v)", flags, csv, err)
		}
	}
}

// TestAbsurdIntervalFailsValidation: an arrival interval above the
// cap, from the flag or from a scenario's interval line, fails before
// the run starts instead of wrapping the arrival clock mid-run.
func TestAbsurdIntervalFailsValidation(t *testing.T) {
	scn := filepath.Join(t.TempDir(), "huge.scn")
	text := "dreamsim-scenario v1\ntasks 10\ninterval 9000000000000000000\n"
	if err := os.WriteFile(scn, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-interval", "9000000000000000000", "-tasks", "10", "-nodes", "5"},
		{"-scenario", scn, "-nodes", "5"},
	} {
		out, code := runCmd(t, args...)
		if code != 1 || !strings.Contains(out, "exceeds the limit") {
			t.Errorf("%v: exit %d, want 1 and a validation error:\n%s", args, code, out)
		}
	}
}

// TestErrorLine: fail names the command once, whether or not the
// error already starts with the dreamsim package's prefix.
func TestErrorLine(t *testing.T) {
	for _, c := range []struct {
		err  error
		want string
	}{
		{errors.New("dreamsim: negative WindowSamples -5"), "dreamsim: negative WindowSamples -5"},
		{fmt.Errorf("dreamsim: matrix cell 1 nodes/2 tasks: %w", errors.New("core: boom")), "dreamsim: matrix cell 1 nodes/2 tasks: core: boom"},
		{errors.New("open missing.trace: no such file or directory"), "dreamsim: open missing.trace: no such file or directory"},
		{errors.New("core: negative MaxSusRetries -1"), "dreamsim: core: negative MaxSusRetries -1"},
		{errors.New("dreamsimulator: not the prefix"), "dreamsim: dreamsimulator: not the prefix"},
	} {
		if got := errorLine(c.err); got != c.want {
			t.Errorf("errorLine(%q) = %q, want %q", c.err, got, c.want)
		}
	}
}
