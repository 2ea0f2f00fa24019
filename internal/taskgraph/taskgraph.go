// Package taskgraph implements DAG workloads for DReAMSim — the
// paper's future-work item "scheduling policies to schedule task
// graphs on the distributed system with reconfigurable nodes" (§VII).
//
// A Graph is a set of application tasks with precedence edges; a task
// becomes eligible to run only when all its parents have completed.
// The root package's RandomLayeredGraph turns a generated graph into
// the task list RunGraph simulates; the engine holds
// arrived-but-blocked tasks until their parents finish.
package taskgraph

import (
	"fmt"

	"dreamsim/internal/model"
	"dreamsim/internal/rng"
	"dreamsim/internal/workload"
)

// Vertex is one task in the graph together with its edges.
type Vertex struct {
	Task     *model.Task
	Parents  []*Vertex
	Children []*Vertex
}

// Graph is a directed acyclic task graph. Acyclicity is enforced by
// construction: a vertex's parents must already be in the graph.
type Graph struct {
	vertices []*Vertex
	byNo     map[int]*Vertex
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{byNo: make(map[int]*Vertex)}
}

// Vertices returns the vertices in insertion order.
func (g *Graph) Vertices() []*Vertex { return g.vertices }

// Add inserts task with the given parent vertices. Parents must
// already belong to this graph and task numbers must be unique, which
// makes cycles impossible.
func (g *Graph) Add(task *model.Task, parents ...*Vertex) (*Vertex, error) {
	if err := task.Validate(); err != nil {
		return nil, err
	}
	if _, dup := g.byNo[task.No]; dup {
		return nil, fmt.Errorf("taskgraph: duplicate task number %d", task.No)
	}
	v := &Vertex{Task: task}
	for _, p := range parents {
		if p == nil || g.byNo[p.Task.No] != p {
			return nil, fmt.Errorf("taskgraph: parent of task %d not in graph", task.No)
		}
		v.Parents = append(v.Parents, p)
		p.Children = append(p.Children, v)
	}
	g.vertices = append(g.vertices, v)
	g.byNo[task.No] = v
	return v, nil
}

// TopoOrder returns the vertices in a topological order (Kahn). The
// construction invariant guarantees one exists; the error return
// guards against graphs corrupted through the exported fields.
func (g *Graph) TopoOrder() ([]*Vertex, error) {
	indeg := make(map[*Vertex]int, len(g.vertices))
	var frontier []*Vertex
	for _, v := range g.vertices {
		indeg[v] = len(v.Parents)
		if len(v.Parents) == 0 {
			frontier = append(frontier, v)
		}
	}
	var order []*Vertex
	for len(frontier) > 0 {
		v := frontier[0]
		frontier = frontier[1:]
		order = append(order, v)
		for _, c := range v.Children {
			indeg[c]--
			if indeg[c] == 0 {
				frontier = append(frontier, c)
			}
		}
	}
	if len(order) != len(g.vertices) {
		return nil, fmt.Errorf("taskgraph: cycle detected (%d of %d ordered)", len(order), len(g.vertices))
	}
	return order, nil
}

// CriticalPath returns the longest t_required-weighted path through
// the graph — the makespan lower bound on infinitely many nodes with
// zero reconfiguration cost — and one path realising it.
func (g *Graph) CriticalPath() (length int64, path []*Vertex) {
	order, err := g.TopoOrder()
	if err != nil {
		return 0, nil
	}
	dist := make(map[*Vertex]int64, len(order))
	pred := make(map[*Vertex]*Vertex, len(order))
	var best *Vertex
	for _, v := range order {
		d := v.Task.RequiredTime
		for _, p := range v.Parents {
			if dist[p]+v.Task.RequiredTime > d {
				d = dist[p] + v.Task.RequiredTime
				pred[v] = p
			}
		}
		dist[v] = d
		if best == nil || d > dist[best] {
			best = v
		}
	}
	if best == nil {
		return 0, nil
	}
	for v := best; v != nil; v = pred[v] {
		path = append([]*Vertex{v}, path...)
	}
	return dist[best], path
}

// TotalWork returns the sum of all t_required — the makespan lower
// bound on a single infinitely-reconfigurable node.
func (g *Graph) TotalWork() int64 {
	var sum int64
	for _, v := range g.vertices {
		sum += v.Task.RequiredTime
	}
	return sum
}

// LayeredSpec parameterises GenerateLayered.
type LayeredSpec struct {
	// Layers and Width shape the DAG: Layers levels of up to Width
	// parallel tasks.
	Layers, Width int
	// EdgeProb is the probability of an edge from each task in layer
	// i to each task in layer i+1 (at least one parent is always
	// wired so layers truly depend on each other).
	EdgeProb float64
	// Workload supplies the per-task attribute ranges (Table II).
	Workload workload.Spec
	// SubmitGap is the tick gap between consecutive task submissions.
	SubmitGap int64
}

// GenerateLayered builds a random layered DAG — the classic synthetic
// task-graph family used in scheduling studies. All tasks are
// submitted near time zero (gap SubmitGap apart, in topological
// order); precedence, not arrival, dominates the schedule.
func GenerateLayered(r *rng.RNG, spec LayeredSpec) (*Graph, error) {
	if spec.Layers < 1 || spec.Width < 1 {
		return nil, fmt.Errorf("taskgraph: need at least 1 layer and width, got %d/%d", spec.Layers, spec.Width)
	}
	if spec.EdgeProb < 0 || spec.EdgeProb > 1 {
		return nil, fmt.Errorf("taskgraph: edge probability %v outside [0,1]", spec.EdgeProb)
	}
	if spec.SubmitGap < 0 {
		return nil, fmt.Errorf("taskgraph: negative submit gap")
	}
	ws := spec.Workload
	if err := ws.Validate(); err != nil {
		return nil, err
	}
	configs := workload.GenConfigs(r.Split(), &ws)

	g := New()
	no := 0
	t := int64(0)
	var prev []*Vertex
	for layer := 0; layer < spec.Layers; layer++ {
		width := 1 + r.Intn(spec.Width)
		var cur []*Vertex
		for i := 0; i < width; i++ {
			var prefNo int
			var needed model.Area
			if r.Bool(ws.ClosestMatchPct) {
				prefNo = len(configs) + r.Intn(1<<20)
				needed = r.Int64Range(ws.ConfigAreaLow, ws.ConfigAreaHigh)
			} else {
				cfg := configs[r.Intn(len(configs))]
				prefNo, needed = cfg.No, cfg.ReqArea
			}
			task := model.NewTask(no, needed, prefNo,
				r.Int64Range(ws.TaskReqTimeLow, ws.TaskReqTimeHigh), t)
			no++
			t += spec.SubmitGap

			var parents []*Vertex
			if layer > 0 {
				for _, p := range prev {
					if r.Bool(spec.EdgeProb) {
						parents = append(parents, p)
					}
				}
				if len(parents) == 0 { // keep layers dependent
					parents = append(parents, prev[r.Intn(len(prev))])
				}
			}
			v, err := g.Add(task, parents...)
			if err != nil {
				return nil, err
			}
			cur = append(cur, v)
		}
		prev = cur
	}
	return g, nil
}
