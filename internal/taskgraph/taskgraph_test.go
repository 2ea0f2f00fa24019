package taskgraph

import (
	"testing"
	"testing/quick"

	"dreamsim/internal/model"
	"dreamsim/internal/rng"
	"dreamsim/internal/workload"
)

func task(no int, req int64) *model.Task {
	return model.NewTask(no, 500, no%10, req, int64(no))
}

// wellFormed reports whether every edge has its back-link and the
// graph orders topologically.
func wellFormed(g *Graph) bool {
	for _, v := range g.Vertices() {
		for _, p := range v.Parents {
			found := false
			for _, c := range p.Children {
				found = found || c == v
			}
			if !found {
				return false
			}
		}
	}
	_, err := g.TopoOrder()
	return err == nil
}

func TestAddAndLookup(t *testing.T) {
	g := New()
	a, err := g.Add(task(0, 100))
	if err != nil {
		t.Fatal(err)
	}
	b, err := g.Add(task(1, 200), a)
	if err != nil {
		t.Fatal(err)
	}
	if vs := g.Vertices(); len(vs) != 2 || vs[0] != a || vs[1] != b {
		t.Fatal("insertion order broken")
	}
	if len(a.Children) != 1 || a.Children[0] != b || len(b.Parents) != 1 {
		t.Fatal("edges broken")
	}
	if !wellFormed(g) {
		t.Fatal("graph not well formed")
	}
}

func TestAddRejects(t *testing.T) {
	g := New()
	a, _ := g.Add(task(0, 100))
	if _, err := g.Add(task(0, 100)); err == nil {
		t.Fatal("duplicate number accepted")
	}
	other := New()
	foreign, _ := other.Add(task(5, 100))
	if _, err := g.Add(task(1, 100), foreign); err == nil {
		t.Fatal("foreign parent accepted")
	}
	if _, err := g.Add(task(2, 100), nil); err == nil {
		t.Fatal("nil parent accepted")
	}
	if _, err := g.Add(model.NewTask(3, 0, 1, 100, 0)); err == nil {
		t.Fatal("invalid task accepted")
	}
	_ = a
}

func TestTopoOrder(t *testing.T) {
	g := New()
	a, _ := g.Add(task(0, 100))
	b, _ := g.Add(task(1, 100), a)
	c, _ := g.Add(task(2, 100), a)
	d, _ := g.Add(task(3, 100), b, c)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := map[*Vertex]int{}
	for i, v := range order {
		pos[v] = i
	}
	if !(pos[a] < pos[b] && pos[a] < pos[c] && pos[b] < pos[d] && pos[c] < pos[d]) {
		t.Fatalf("topo order wrong: %v", pos)
	}
}

func TestCycleDetection(t *testing.T) {
	g := New()
	a, _ := g.Add(task(0, 100))
	b, _ := g.Add(task(1, 100), a)
	// Corrupt through exported fields: a depends on b.
	a.Parents = append(a.Parents, b)
	b.Children = append(b.Children, a)
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestCriticalPath(t *testing.T) {
	g := New()
	a, _ := g.Add(task(0, 100))
	b, _ := g.Add(task(1, 50), a)
	c, _ := g.Add(task(2, 300), a)
	_, _ = g.Add(task(3, 10), b, c)
	length, path := g.CriticalPath()
	if length != 100+300+10 {
		t.Fatalf("critical path length %d, want 410", length)
	}
	if len(path) != 3 || path[0] != a || path[1] != c {
		t.Fatalf("critical path: %v", path)
	}
	if g.TotalWork() != 460 {
		t.Fatalf("total work %d", g.TotalWork())
	}
	// Empty graph.
	if l, p := New().CriticalPath(); l != 0 || p != nil {
		t.Fatal("empty graph critical path")
	}
}

func layeredSpec(layers, width int) LayeredSpec {
	return LayeredSpec{
		Layers: layers, Width: width, EdgeProb: 0.4,
		Workload:  workload.TableII(100, 0),
		SubmitGap: 1,
	}
}

func TestGenerateLayered(t *testing.T) {
	g, err := GenerateLayered(rng.New(1), layeredSpec(8, 6))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(g.Vertices()); n < 8 {
		t.Fatalf("graph too small: %d", n)
	}
	if !wellFormed(g) {
		t.Fatal("graph not well formed")
	}
	// Every non-root layer task has at least one parent, so only the
	// first layer's tasks are roots.
	roots := 0
	for _, v := range g.Vertices() {
		if len(v.Parents) == 0 {
			roots++
		}
	}
	if roots == 0 || roots > 6 {
		t.Fatalf("roots: %d", roots)
	}
	length, path := g.CriticalPath()
	if length <= 0 || len(path) < 8 { // at least one vertex per layer
		t.Fatalf("critical path %d / %d vertices", length, len(path))
	}
}

func TestGenerateLayeredRejects(t *testing.T) {
	bad := []LayeredSpec{
		{Layers: 0, Width: 3, Workload: workload.TableII(10, 0)},
		{Layers: 3, Width: 0, Workload: workload.TableII(10, 0)},
		{Layers: 3, Width: 3, EdgeProb: 1.5, Workload: workload.TableII(10, 0)},
		{Layers: 3, Width: 3, EdgeProb: 0.5, SubmitGap: -1, Workload: workload.TableII(10, 0)},
		{Layers: 3, Width: 3, EdgeProb: 0.5, Workload: workload.Spec{}},
	}
	for i, spec := range bad {
		if _, err := GenerateLayered(rng.New(1), spec); err == nil {
			t.Errorf("bad spec %d accepted", i)
		}
	}
}

func TestGenerateLayeredDeterministic(t *testing.T) {
	a, _ := GenerateLayered(rng.New(9), layeredSpec(5, 4))
	b, _ := GenerateLayered(rng.New(9), layeredSpec(5, 4))
	if len(a.Vertices()) != len(b.Vertices()) {
		t.Fatal("sizes differ")
	}
	la, _ := a.CriticalPath()
	lb, _ := b.CriticalPath()
	if la != lb {
		t.Fatal("critical paths differ across identical seeds")
	}
}

// Property: layered generation always yields a valid DAG whose
// critical path is bounded by total work.
func TestQuickLayeredInvariants(t *testing.T) {
	f := func(seed uint16, layers, width uint8, prob uint8) bool {
		spec := layeredSpec(int(layers%6)+1, int(width%5)+1)
		spec.EdgeProb = float64(prob) / 255
		g, err := GenerateLayered(rng.New(uint64(seed)), spec)
		if err != nil {
			return false
		}
		if !wellFormed(g) {
			return false
		}
		length, _ := g.CriticalPath()
		return length > 0 && length <= g.TotalWork()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
