package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dreamsim"
)

func testSpec(nodes, tasks []int) JobSpec {
	p := dreamsim.DefaultParams()
	p.Nodes = 10
	p.Configs = 8
	p.Tasks = 40
	p.TaskTimeRange = [2]int64{100, 2000}
	return JobSpec{Params: p, NodeCounts: nodes, TaskCounts: tasks}
}

func TestSpecUnitLowering(t *testing.T) {
	spec := testSpec([]int{10, 20}, []int{100, 200, 300})
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	if got := spec.units(); got != 12 {
		t.Fatalf("units = %d, want 12", got)
	}
	// Row-major cells, node counts outer; even units full, odd partial
	// — the RunMatrix unit model.
	wants := []struct {
		nodes, tasks int
		partial      bool
	}{
		{10, 100, false}, {10, 100, true},
		{10, 200, false}, {10, 200, true},
		{10, 300, false}, {10, 300, true},
		{20, 100, false}, {20, 100, true},
		{20, 200, false}, {20, 200, true},
		{20, 300, false}, {20, 300, true},
	}
	for u, want := range wants {
		p := spec.unitParams(u)
		if p.Nodes != want.nodes || p.Tasks != want.tasks || p.PartialReconfig != want.partial {
			t.Fatalf("unit %d lowered to nodes=%d tasks=%d partial=%v, want %+v",
				u, p.Nodes, p.Tasks, p.PartialReconfig, want)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	spec := testSpec(nil, nil)
	if err := spec.normalize(); err != nil {
		t.Fatal(err)
	}
	if spec.units() != 2 {
		t.Fatalf("defaulted grid has %d units, want 2", spec.units())
	}
	oversized := testSpec(nil, nil)
	oversized.Params.Nodes = 1 << 62
	bogus := testSpec(nil, nil)
	bogus.Params.Placement = "bogus"
	for _, bad := range []JobSpec{
		testSpec([]int{0}, nil),
		testSpec([]int{10, 10}, nil),
		testSpec(nil, []int{-5}),
		testSpec(nil, []int{100, 100}),
		oversized,
		testSpec([]int{10, 1 << 62}, []int{100, 200}),
		bogus,
	} {
		err := bad.normalize()
		if err == nil {
			err = bad.validate()
		}
		if err == nil {
			t.Fatalf("spec %+v accepted", bad)
		}
	}
}

func TestSpecDecodeAppliesDefaults(t *testing.T) {
	var spec JobSpec
	if err := json.Unmarshal([]byte(`{"params":{"Tasks":2000},"node_counts":[100,200]}`), &spec); err != nil {
		t.Fatal(err)
	}
	def := dreamsim.DefaultParams()
	if spec.Params.Tasks != 2000 || spec.Params.Configs != def.Configs || spec.Params.NextTaskMaxInterval != def.NextTaskMaxInterval {
		t.Fatalf("sparse spec decoded to %+v", spec.Params)
	}
	if err := json.Unmarshal([]byte(`{"params":{"Taks":1}}`), &spec); err == nil {
		t.Fatal("misspelled parameter accepted")
	}
}

func TestStoreJobIDsAreSequentialAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	j1, err := st.CreateJob(testSpec(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := st.CreateJob(testSpec(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if j1.ID != "j000001" || j2.ID != "j000002" {
		t.Fatalf("IDs %q, %q", j1.ID, j2.ID)
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	j3, err := st2.CreateJob(testSpec(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID != "j000003" {
		t.Fatalf("ID after reopen %q, want j000003", j3.ID)
	}
	jobs, err := st2.LoadJobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 3 || jobs[0].ID != "j000001" || jobs[2].ID != "j000003" {
		t.Fatalf("LoadJobs returned %d jobs", len(jobs))
	}
}

func TestAppendResultEnforcesOrder(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.CreateJob(testSpec(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendResult(ResultLine{Unit: 1}); err == nil {
		t.Fatal("out-of-order append accepted")
	}
	if err := j.AppendResult(ResultLine{Unit: 0}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendResult(ResultLine{Unit: 0}); err == nil {
		t.Fatal("duplicate append accepted")
	}
	if j.Completed != 1 {
		t.Fatalf("Completed = %d", j.Completed)
	}
}

// TestRepairResults pins the restart contract: results.ndjson is
// trusted only up to its longest prefix of complete, consecutive
// lines; everything after a torn or out-of-sequence line re-runs.
func TestRepairResults(t *testing.T) {
	line := func(u int) string {
		blob, err := json.Marshal(ResultLine{Unit: u, Nodes: 10, Tasks: 40, Scenario: "full"})
		if err != nil {
			t.Fatal(err)
		}
		return string(blob) + "\n"
	}
	cases := []struct {
		name      string
		content   string
		completed int
		keep      string
	}{
		{"empty", "", 0, ""},
		{"clean", line(0) + line(1), 2, line(0) + line(1)},
		{"torn tail", line(0) + line(1)[:17], 1, line(0)},
		{"gap", line(0) + line(2), 1, line(0)},
		{"garbage line", line(0) + "not json\n" + line(1), 1, line(0)},
		{"all torn", line(0)[:9], 0, ""},
	}
	for _, tc := range cases {
		t.Run(strings.ReplaceAll(tc.name, " ", "_"), func(t *testing.T) {
			st, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			j, err := st.CreateJob(testSpec(nil, nil))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(j.ResultsPath(), []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			loaded, err := st.LoadJobs()
			if err != nil {
				t.Fatal(err)
			}
			got := loaded[len(loaded)-1]
			if got.Completed != tc.completed {
				t.Fatalf("Completed = %d, want %d", got.Completed, tc.completed)
			}
			data, err := os.ReadFile(got.ResultsPath())
			if err != nil && !os.IsNotExist(err) {
				t.Fatal(err)
			}
			if string(data) != tc.keep {
				t.Fatalf("repaired file is %q, want %q", data, tc.keep)
			}
		})
	}
}

func TestCheckpointRoundTripAndMarkers(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	j, err := st.CreateJob(testSpec(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if j.ReadCheckpoint(0) != nil {
		t.Fatal("phantom checkpoint")
	}
	if err := j.WriteCheckpoint(0, []byte("snap")); err != nil {
		t.Fatal(err)
	}
	if got := j.ReadCheckpoint(0); string(got) != "snap" {
		t.Fatalf("checkpoint round trip gave %q", got)
	}
	j.DeleteCheckpoint(0)
	if j.ReadCheckpoint(0) != nil {
		t.Fatal("checkpoint survived deletion")
	}

	if err := j.MarkError("boom"); err != nil {
		t.Fatal(err)
	}
	if err := j.MarkCancelled(); err != nil {
		t.Fatal(err)
	}
	jobs, err := st.LoadJobs()
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].Err != "boom" || !jobs[0].Cancelled {
		t.Fatalf("markers not reloaded: %+v", jobs[0])
	}
}

func TestWriteFileAtomicLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	for i := 0; i < 3; i++ {
		if err := writeFileAtomic(path, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "v2" {
		t.Fatalf("read %q, %v", data, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("stray files left behind: %v", entries)
	}
}

// TestLoadJobToleratesRemovedParameter: a spec.json written when
// Params had a field it no longer has still loads, with every other
// parameter intact.
func TestLoadJobToleratesRemovedParameter(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	spec := testSpec(nil, nil)
	spec.Params.Tasks = 1234
	j, err := st.CreateJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.jobDir(j.ID), "spec.json")
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob = bytes.Replace(blob, []byte(`"params": {`), []byte(`"params": {"RemovedKnob": 4,`), 1)
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	jobs, err := st.LoadJobs()
	if err != nil {
		t.Fatalf("LoadJobs with a removed parameter in spec.json: %v", err)
	}
	if len(jobs) != 1 || jobs[0].Spec.Params.Tasks != 1234 {
		t.Fatalf("reloaded jobs %+v", jobs)
	}
}
