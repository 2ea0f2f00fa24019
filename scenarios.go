package dreamsim

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"dreamsim/internal/exec"
)

// NamedScenario pairs a scenario's display name with its text — the
// unit of a scenario sweep.
type NamedScenario struct {
	// Name labels the scenario in sweep output; LoadScenario uses the
	// file's base name without extension.
	Name string
	// Text is the full "dreamsim-scenario v1" specification.
	Text string
}

// LoadScenario reads one scenario file. The text is returned as-is
// (parsing and validation happen when the scenario is run), so a load
// is cheap and the error surface stays in one place.
func LoadScenario(path string) (NamedScenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return NamedScenario{}, err
	}
	name := filepath.Base(path)
	if ext := filepath.Ext(name); ext != "" {
		name = strings.TrimSuffix(name, ext)
	}
	return NamedScenario{Name: name, Text: string(data)}, nil
}

// ScenarioCell is one finished point of a scenario sweep: both
// reconfiguration scenarios run under one workload scenario.
type ScenarioCell struct {
	Name          string
	Full, Partial Result
}

// RunScenarioSet sweeps both reconfiguration methods over a set of
// workload scenarios — the scenario-file analogue of RunMatrix. Every
// (scenario, method) pair is an independent simulation unit, so
// base.Parallelism of them run concurrently; results are
// byte-identical to a sequential sweep. onCell, when non-nil,
// observes each finished cell; with Parallelism > 1 cells may finish
// out of set order (calls are serialised).
func RunScenarioSet(base Params, set []NamedScenario, onCell func(ScenarioCell)) ([]ScenarioCell, error) {
	if len(set) == 0 {
		return nil, fmt.Errorf("dreamsim: empty scenario set")
	}
	if err := checkSweep(base); err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(set))
	for _, s := range set {
		if seen[s.Name] {
			return nil, fmt.Errorf("dreamsim: duplicate scenario name %q in set", s.Name)
		}
		seen[s.Name] = true
	}
	cells := make([]ScenarioCell, len(set))
	for i := range cells {
		cells[i].Name = set[i].Name
	}

	// Two units per scenario, full-then-partial, mirroring RunMatrix:
	// one worker reproduces the sequential order exactly.
	pending := make([]atomic.Int32, len(cells))
	for i := range pending {
		pending[i].Store(2)
	}
	var cellMu sync.Mutex
	workers := workersFor(base.Parallelism, 2*len(cells))
	scratch := newScratchPool(workers)
	err := exec.DoWorkers(context.Background(), workers, 2*len(cells),
		func(_ context.Context, w, u int) error {
			cell := &cells[u/2]
			p := base
			p.ScenarioText = set[u/2].Text
			p.PartialReconfig = u%2 == 1
			res, err := runScratch(p, scratch.get(w), nil, nil)
			if err != nil {
				return fmt.Errorf("dreamsim: scenario %q: %w", cell.Name, err)
			}
			if p.PartialReconfig {
				//lint:sharedstate units 2k and 2k+1 share cell u/2 but write disjoint fields (Partial vs Full), and readers are ordered after both writes by the pending[u/2] atomic decrement
				cell.Partial = res
			} else {
				//lint:sharedstate units 2k and 2k+1 share cell u/2 but write disjoint fields (Partial vs Full), and readers are ordered after both writes by the pending[u/2] atomic decrement
				cell.Full = res
			}
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
	return cells, nil
}
