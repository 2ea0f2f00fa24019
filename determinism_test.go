package dreamsim

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

// Cross-process determinism regression: the serialised result of a
// small sweep must be byte-identical across fresh processes and
// across parallelism levels. In-process repetition cannot catch
// nondeterminism seeded by Go's per-process map iteration hashing or
// by goroutine interleaving, so the test re-execs the test binary and
// compares the SaveMatrix JSON byte for byte.

const (
	detChildEnv  = "DREAMSIM_DETERMINISM_CHILD"
	detOutEnv    = "DREAMSIM_DETERMINISM_OUT"
	detParEnv    = "DREAMSIM_DETERMINISM_PAR"
	detFaultsEnv = "DREAMSIM_DETERMINISM_FAULTS"
)

// TestDeterminismChild is the re-exec target: it runs the sweep and
// writes the serialised matrix where the parent asked. Outside a
// child process it is skipped.
func TestDeterminismChild(t *testing.T) {
	if os.Getenv(detChildEnv) != "1" {
		t.Skip("helper for TestCrossProcessByteIdenticalSweep")
	}
	par := 1
	if n, err := strconv.Atoi(os.Getenv(detParEnv)); err == nil && n > 0 {
		par = n
	}
	p := DefaultParams()
	p.Seed = 424242
	p.Parallelism = par
	p.TaskTimeRange = [2]int64{50, 2000}
	if os.Getenv(detFaultsEnv) == "1" {
		p.FaultCrashRate = 0.003
		p.FaultMeanDowntime = 150
		p.FaultReconfigRate = 0.002
		p.FaultRetryBudget = 2
	}
	m, err := RunMatrix(p, []int{6, 9}, []int{80, 150}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(os.Getenv(detOutEnv), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

// crossProcessBlobs re-execs TestDeterminismChild once per entry in
// pars (sweep worker counts) and returns the serialised matrices,
// failing on any child error or empty output.
func crossProcessBlobs(t *testing.T, faults bool, pars []string) [][]byte {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	var blobs [][]byte
	for i, par := range pars {
		out := filepath.Join(dir, fmt.Sprintf("run-%d.json", i))
		cmd := exec.Command(exe, "-test.run=^TestDeterminismChild$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			detChildEnv+"=1", detOutEnv+"="+out, detParEnv+"="+par)
		if faults {
			cmd.Env = append(cmd.Env, detFaultsEnv+"=1")
		}
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child par=%s: %v\n%s", par, err, msg)
		}
		blob, err := os.ReadFile(out)
		if err != nil {
			t.Fatalf("child par=%s wrote no output: %v", par, err)
		}
		if len(blob) == 0 {
			t.Fatalf("child par=%s wrote an empty matrix", par)
		}
		blobs = append(blobs, blob)
	}
	return blobs
}

func TestCrossProcessByteIdenticalSweep(t *testing.T) {
	pars := []string{"1", "4", "4"}
	blobs := crossProcessBlobs(t, false, pars)
	for i := 1; i < len(blobs); i++ {
		if !bytes.Equal(blobs[0], blobs[i]) {
			t.Errorf("par=%s result JSON differs from par=%s (%d vs %d bytes)",
				pars[i], pars[0], len(blobs[i]), len(blobs[0]))
		}
	}
}

// TestCrossProcessByteIdenticalFaultSweep is the fault-enabled
// variant: random crash, recovery and reconfiguration-fault streams
// must serialise byte-identically across fresh processes at 1, 4 and
// 8 sweep workers. The NodeCrashes field is omitempty, so its
// presence in the blob proves the streams actually fired rather than
// the comparison passing vacuously.
func TestCrossProcessByteIdenticalFaultSweep(t *testing.T) {
	pars := []string{"1", "4", "8"}
	blobs := crossProcessBlobs(t, true, pars)
	for i := 1; i < len(blobs); i++ {
		if !bytes.Equal(blobs[0], blobs[i]) {
			t.Errorf("par=%s fault result JSON differs from par=%s (%d vs %d bytes)",
				pars[i], pars[0], len(blobs[i]), len(blobs[0]))
		}
	}
	if !bytes.Contains(blobs[0], []byte("NodeCrashes")) {
		t.Error("fault sweep recorded no crashes; the determinism check is vacuous")
	}
}
