package dreamsim_test

import (
	"bytes"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"dreamsim"
)

// matrixBytes runs a small sweep at the given parallelism and returns
// its serialised form — the byte-level identity witness.
func matrixBytes(t *testing.T, parallel int) []byte {
	t.Helper()
	p := dreamsim.DefaultParams()
	p.Parallelism = parallel
	m, err := dreamsim.RunMatrix(p, []int{20, 40}, []int{100, 200, 400}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := dreamsim.SaveMatrix(&buf, m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMatrixParallelDeterminism proves the tentpole guarantee: the
// matrix a parallel sweep assembles is byte-identical to the
// sequential one, for every worker count.
func TestMatrixParallelDeterminism(t *testing.T) {
	want := matrixBytes(t, 1)
	for _, workers := range []int{4, runtime.NumCPU()} {
		if got := matrixBytes(t, workers); !bytes.Equal(got, want) {
			t.Errorf("parallel=%d sweep differs from sequential (%d vs %d bytes)",
				workers, len(got), len(want))
		}
	}
}

// TestMatrixCellsMatchFreshRuns: a sweep's workers carry their run
// context, the task free list included, from unit to unit, through
// task counts that grow and shrink; every cell must still equal the
// same run made alone on a fresh context.
func TestMatrixCellsMatchFreshRuns(t *testing.T) {
	p := dreamsim.DefaultParams()
	for _, parallel := range []int{1, 2} {
		p.Parallelism = parallel
		m, err := dreamsim.RunMatrix(p, []int{20, 40}, []int{400, 100, 800}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range m.Cells {
			for _, partial := range []bool{false, true} {
				q := p
				q.Nodes, q.Tasks, q.PartialReconfig = c.Nodes, c.Tasks, partial
				want, err := dreamsim.Run(q)
				if err != nil {
					t.Fatal(err)
				}
				got := c.Full
				if partial {
					got = c.Partial
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("parallel=%d cell %d nodes/%d tasks partial=%v differs from a fresh run",
						parallel, c.Nodes, c.Tasks, partial)
				}
			}
		}
	}
}

// TestCompareParallelMatchesSequential checks the scenario halves of
// Compare produce identical results run concurrently or in sequence.
func TestCompareParallelMatchesSequential(t *testing.T) {
	p := dreamsim.DefaultParams()
	p.Nodes = 50
	p.Tasks = 500
	fullSeq, partSeq, err := dreamsim.Compare(p)
	if err != nil {
		t.Fatal(err)
	}
	p.Parallelism = 2
	fullPar, partPar, err := dreamsim.Compare(p)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fullSeq, fullPar) || !reflect.DeepEqual(partSeq, partPar) {
		t.Error("parallel Compare differs from sequential")
	}
}

// TestRunReplicatedParallelDeterminism checks seed fan-out statistics
// are independent of the worker count.
func TestRunReplicatedParallelDeterminism(t *testing.T) {
	p := dreamsim.DefaultParams()
	p.Nodes = 50
	p.Tasks = 300
	seeds := dreamsim.Seeds(7, 5)
	seq, err := dreamsim.RunReplicated(p, seeds)
	if err != nil {
		t.Fatal(err)
	}
	p.Parallelism = 4
	par, err := dreamsim.RunReplicated(p, seeds)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(par) {
		t.Fatalf("metric count differs: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Errorf("metric %s differs across worker counts: %+v vs %+v",
				seq[i].Name, seq[i], par[i])
		}
	}
}

// TestRunMatrixObservesEveryCell checks onCell fires exactly once per
// cell under parallel execution.
func TestRunMatrixObservesEveryCell(t *testing.T) {
	p := dreamsim.DefaultParams()
	p.Parallelism = 4
	var cells atomic.Int64
	m, err := dreamsim.RunMatrix(p, []int{20, 30}, []int{100, 200}, func(c dreamsim.Cell) {
		if c.Full.TotalTasks == 0 || c.Partial.TotalTasks == 0 {
			t.Errorf("cell %d/%d observed before both halves finished", c.Nodes, c.Tasks)
		}
		cells.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := cells.Load(); got != int64(len(m.Cells)) {
		t.Errorf("onCell fired %d times for %d cells", got, len(m.Cells))
	}
}

// TestRunMatrixRejectsDuplicateCoordinates covers the grid validation
// that replaced silent duplicate cells.
func TestRunMatrixRejectsDuplicateCoordinates(t *testing.T) {
	p := dreamsim.DefaultParams()
	if _, err := dreamsim.RunMatrix(p, []int{20, 20}, []int{100}, nil); err == nil {
		t.Error("duplicate node count accepted")
	}
	if _, err := dreamsim.RunMatrix(p, []int{20}, []int{100, 100}, nil); err == nil {
		t.Error("duplicate task count accepted")
	}
}

// TestCellAtIndexedLookup checks the coordinate map agrees with the
// historical linear scan, including for absent coordinates.
func TestCellAtIndexedLookup(t *testing.T) {
	p := dreamsim.DefaultParams()
	m, err := dreamsim.RunMatrix(p, []int{20, 30}, []int{100, 200}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range m.NodeCounts {
		for _, tc := range m.TaskCounts {
			c := m.CellAt(n, tc)
			if c == nil || c.Nodes != n || c.Tasks != tc {
				t.Fatalf("CellAt(%d, %d) = %+v", n, tc, c)
			}
		}
	}
	if c := m.CellAt(999, 100); c != nil {
		t.Errorf("CellAt(999, 100) = %+v, want nil", c)
	}
}
