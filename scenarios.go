package dreamsim

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
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
// workload scenarios — the scenario-file analogue of RunMatrix, with
// scenario i's full run as unit 2i and its partial run as unit 2i+1.
// Every unit is an independent simulation, so base.Parallelism of them
// run concurrently; results are byte-identical to a sequential sweep.
// onCell, when non-nil, observes each finished cell; with
// Parallelism > 1 cells may finish out of set order (calls are
// serialised).
func RunScenarioSet(base Params, set []NamedScenario, onCell func(ScenarioCell)) ([]ScenarioCell, error) {
	if len(set) == 0 {
		return nil, fmt.Errorf("dreamsim: empty scenario set")
	}
	seen := make(map[string]bool, len(set))
	units := make([]sweepUnit, 0, 2*len(set))
	for _, s := range set {
		if seen[s.Name] {
			return nil, fmt.Errorf("dreamsim: duplicate scenario name %q in set", s.Name)
		}
		seen[s.Name] = true
		p := base
		p.ScenarioText = s.Text
		units = appendPair(units, p, fmt.Sprintf("scenario %q", s.Name))
	}
	var onPair func(int, Result, Result)
	if onCell != nil {
		onPair = func(i int, full, partial Result) {
			onCell(ScenarioCell{Name: set[i].Name, Full: full, Partial: partial})
		}
	}
	res, err := sweep(base.Parallelism, units, onPair)
	if err != nil {
		return nil, err
	}
	cells := make([]ScenarioCell, len(set))
	for i := range cells {
		cells[i] = ScenarioCell{Name: set[i].Name, Full: res[2*i], Partial: res[2*i+1]}
	}
	return cells, nil
}
