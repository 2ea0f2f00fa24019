package dreamsim_test

import (
	"strings"
	"testing"

	"dreamsim"
)

const miniSWF = `; tiny SWF for public API tests
1 0 0 3600 8 -1 -1 8 4000 -1 1 101 5 7 1 1 -1 -1
2 30 0 120 2 -1 -1 2 300 -1 1 102 5 3 1 1 -1 -1
3 60 0 600 16 -1 -1 16 700 -1 1 103 6 9 1 1 1 -1
4 90 0 60 4 -1 -1 4 60 -1 1 103 6 2 1 1 2 -1
`

func TestLoadSWF(t *testing.T) {
	tasks, err := dreamsim.LoadSWF(strings.NewReader(miniSWF), dreamsim.SWFMapping{KeepDependencies: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 4 {
		t.Fatalf("got %d tasks", len(tasks))
	}
	if tasks[0].ID != 1 || tasks[0].RequiredTime != 3600 || tasks[0].NeededArea != 800 {
		t.Fatalf("job 1 mapping: %+v", tasks[0])
	}
	// Dependencies: job 3 after job 1, job 4 after job 2.
	if len(tasks[2].DependsOn) != 1 || tasks[2].DependsOn[0] != 1 {
		t.Fatalf("job 3 deps: %v", tasks[2].DependsOn)
	}
	if len(tasks[3].DependsOn) != 1 || tasks[3].DependsOn[0] != 2 {
		t.Fatalf("job 4 deps: %v", tasks[3].DependsOn)
	}
}

// negativeJobSWF is two jobs, the second numbered -3 and naming job 1
// as its predecessor.
const negativeJobSWF = `1 0 0 100 1 -1 -1 1 100 -1 1 1 1 1 1 1 -1 -1
-3 10 0 50 1 -1 -1 1 50 -1 1 1 1 1 1 1 1 -1
`

// TestLoadSWFNegativeJobRuns: a negative job number is a name like any
// other; the job waits for its predecessor and runs.
func TestLoadSWFNegativeJobRuns(t *testing.T) {
	tasks, err := dreamsim.LoadSWF(strings.NewReader(negativeJobSWF), dreamsim.SWFMapping{KeepDependencies: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tasks) != 2 || len(tasks[1].DependsOn) != 1 || tasks[1].ID != -3 {
		t.Fatalf("loaded %+v, want job -3 depending on job 1", tasks)
	}
	p := dreamsim.DefaultParams()
	p.Nodes = 4
	res, err := dreamsim.RunGraph(tasks, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedTasks != 2 || res.TotalSimulationTime < 150 {
		t.Fatalf("completed %d of 2 by tick %d; job -3 must follow job 1 (100 ticks) with its own 50",
			res.CompletedTasks, res.TotalSimulationTime)
	}
}

// FuzzRunSWF runs what LoadSWF makes of any log, dependencies kept,
// through RunGraph on four nodes: the run returns a result or an
// error, and never panics.
func FuzzRunSWF(f *testing.F) {
	f.Add(miniSWF)
	f.Add(negativeJobSWF)
	f.Fuzz(func(t *testing.T, log string) {
		tasks, err := dreamsim.LoadSWF(strings.NewReader(log), dreamsim.SWFMapping{KeepDependencies: true, MaxJobs: 32})
		if err != nil {
			return
		}
		p := dreamsim.DefaultParams()
		p.Nodes = 4
		_, _ = dreamsim.RunGraph(tasks, p) // either outcome passes; a panic fails
	})
}

func TestLoadSWFAndRun(t *testing.T) {
	tasks, err := dreamsim.LoadSWF(strings.NewReader(miniSWF), dreamsim.SWFMapping{
		KeepDependencies: true,
		TicksPerSecond:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := dreamsim.DefaultParams()
	p.Nodes = 10
	res, err := dreamsim.RunGraph(tasks, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.CompletedTasks != 4 {
		t.Fatalf("completed %d of 4", res.CompletedTasks)
	}
	// Job 3 (1200 ticks) must finish after job 1 (7200 ticks): the
	// makespan covers the dependency chain 1 -> 3.
	if res.TotalSimulationTime < 7200+1200 {
		t.Fatalf("makespan %d ignores SWF precedence", res.TotalSimulationTime)
	}
}

func TestLoadSWFRejectsGarbage(t *testing.T) {
	if _, err := dreamsim.LoadSWF(strings.NewReader("not swf"), dreamsim.SWFMapping{}); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := dreamsim.LoadSWF(strings.NewReader("; empty\n"), dreamsim.SWFMapping{}); err == nil {
		t.Fatal("empty log accepted")
	}
}
