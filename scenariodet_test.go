package dreamsim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"testing"
)

// Cross-process determinism for the scenario DSL: every committed
// example scenario, swept over both reconfiguration methods, must
// serialise byte-identically across fresh processes and across
// parallelism levels 1, 4 and 8. As with the matrix sweep, re-exec is
// the only way to catch nondeterminism seeded per process (map
// iteration hashing, goroutine interleavings).

const (
	scnDetChildEnv = "DREAMSIM_SCENARIODET_CHILD"
	scnDetOutEnv   = "DREAMSIM_SCENARIODET_OUT"
	scnDetParEnv   = "DREAMSIM_SCENARIODET_PAR"
)

// TestScenarioDeterminismChild is the re-exec target: it sweeps the
// example scenarios and writes the serialised cells where the parent
// asked. Outside a child process it is skipped.
func TestScenarioDeterminismChild(t *testing.T) {
	if os.Getenv(scnDetChildEnv) != "1" {
		t.Skip("helper for TestScenarioCrossProcessByteIdentical")
	}
	par := 1
	if n, err := strconv.Atoi(os.Getenv(scnDetParEnv)); err == nil && n > 0 {
		par = n
	}
	paths, err := filepath.Glob(filepath.Join("examples", "scenarios", "*.scn"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no example scenarios: %v", err)
	}
	var set []NamedScenario
	for _, path := range paths {
		scn, err := LoadScenario(path)
		if err != nil {
			t.Fatal(err)
		}
		set = append(set, scn)
	}
	p := DefaultParams()
	p.Nodes = 60
	p.Tasks = 0
	p.Parallelism = par
	cells, err := RunScenarioSet(p, set, nil)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.MarshalIndent(cells, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(os.Getenv(scnDetOutEnv), blob, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestScenarioCrossProcessByteIdentical(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	pars := []string{"1", "4", "8"}
	var blobs [][]byte
	for i, par := range pars {
		out := filepath.Join(dir, fmt.Sprintf("run-%d.json", i))
		cmd := exec.Command(exe, "-test.run=^TestScenarioDeterminismChild$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			scnDetChildEnv+"=1", scnDetOutEnv+"="+out, scnDetParEnv+"="+par)
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("child par=%s: %v\n%s", par, err, msg)
		}
		blob, err := os.ReadFile(out)
		if err != nil || len(blob) == 0 {
			t.Fatalf("child par=%s wrote no output: %v", par, err)
		}
		blobs = append(blobs, blob)
	}
	for i := 1; i < len(blobs); i++ {
		if !bytes.Equal(blobs[0], blobs[i]) {
			t.Errorf("par=%s scenario sweep JSON differs from par=%s (%d vs %d bytes)",
				pars[i], pars[0], len(blobs[i]), len(blobs[0]))
		}
	}
	// The per-class rows are omitempty: their presence proves a
	// multi-class run, not a single-class one, actually ran.
	if !bytes.Contains(blobs[0], []byte(`"Classes"`)) {
		t.Error("scenario sweep recorded no per-class rows; the determinism check is vacuous")
	}
}
