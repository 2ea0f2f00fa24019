package workload

import (
	"fmt"
	"math"

	"dreamsim/internal/model"
	"dreamsim/internal/rng"
)

// ptypePool is the processor-type palette used for synthetic
// configurations, matching the examples the paper gives for Ptype.
var ptypePool = []model.PType{
	model.PTypeSoftCore,
	model.PTypeMultiplier,
	model.PTypeSystolic,
	model.PTypeDSP,
	model.PTypeCrypto,
}

// GenConfigs generates the configurations list (the paper's
// InitConfigs): ReqArea and ConfigTime uniform within the spec
// ranges, a processor type with architecture parameters, and a
// bitstream size proportional to the area (a plausible stand-in for
// real device bitstreams; only the optional transfer model reads it).
func GenConfigs(r *rng.RNG, spec *Spec) []*model.Config {
	configs := make([]*model.Config, spec.Configs)
	for i := range configs {
		area := r.Int64Range(spec.ConfigAreaLow, spec.ConfigAreaHigh)
		pt := ptypePool[r.Intn(len(ptypePool))]
		configs[i] = &model.Config{
			No:           i,
			ReqArea:      area,
			Ptype:        pt,
			Params:       genParams(r, pt),
			BSize:        area * 128, // ~128 B of bitstream per area unit
			ConfigTime:   r.Int64Range(spec.ConfigTimeLow, spec.ConfigTimeHigh),
			RequiredCaps: drawCaps(r, spec.CapKinds, spec.ConfigCapProb),
		}
	}
	return configs
}

// genParams synthesises an architecture parameter list for a Ptype
// (issue width, FU mix, memory slots — the ρ-VEX style attributes
// the paper cites).
func genParams(r *rng.RNG, pt model.PType) []string {
	switch pt {
	case model.PTypeSoftCore:
		return []string{
			fmt.Sprintf("issues=%d", 1<<r.Intn(3)),
			fmt.Sprintf("alus=%d", 1+r.Intn(8)),
			fmt.Sprintf("muls=%d", 1+r.Intn(4)),
			fmt.Sprintf("memslots=%d", 1+r.Intn(4)),
		}
	case model.PTypeMultiplier:
		return []string{fmt.Sprintf("width=%d", 8<<r.Intn(3))}
	case model.PTypeSystolic:
		d := 2 + r.Intn(7)
		return []string{fmt.Sprintf("grid=%dx%d", d, d)}
	case model.PTypeDSP:
		return []string{fmt.Sprintf("taps=%d", 16<<r.Intn(4))}
	default:
		return []string{fmt.Sprintf("rounds=%d", 10+r.Intn(6))}
	}
}

// GenNodes generates the node population (the paper's InitNodes):
// TotalArea uniform within the node area limits. partial selects the
// reconfiguration method for the whole population.
func GenNodes(r *rng.RNG, spec *Spec, partial bool) []*model.Node {
	nodes := make([]*model.Node, spec.Nodes)
	for i := range nodes {
		n := model.NewNode(i, r.Int64Range(spec.NodeAreaLow, spec.NodeAreaHigh), partial)
		n.Caps = drawCaps(r, spec.CapKinds, spec.NodeCapProb)
		nodes[i] = n
	}
	return nodes
}

// drawCaps samples a capability subset; nil when the extension is off.
func drawCaps(r *rng.RNG, kinds []string, prob float64) []string {
	if len(kinds) == 0 || prob <= 0 {
		return nil
	}
	var out []string
	for _, k := range kinds {
		if r.Bool(prob) {
			out = append(out, k)
		}
	}
	return out
}

// TaskSource yields the task arrival stream of a run, one task at a
// time — the streaming contract that keeps simulation memory bounded
// by the live task set rather than the workload size. Implementations:
// *Generator (synthetic), *TraceReader (recorded workloads) and the
// SliceSource replay wrapper. Sources that additionally implement
// Recycler hand out pooled task structs.
type TaskSource interface {
	// Next returns the next task in arrival order, or ok=false when
	// the stream is exhausted. Tasks arrive with CreateTime set and
	// strictly non-decreasing.
	Next() (task *model.Task, ok bool)
}

// Generator synthesises the task stream (the paper's CreateTask /
// job submission manager). It is deterministic given its RNG, and it
// is lazy: each Next draws exactly one task, so a million-task
// workload never exists in memory at once. It is the single synthetic
// generation code path — materialized workloads are expressed over it
// (Drain + SliceSource), never drawn by separate logic, so a pooled
// run and its replay cannot drift.
type Generator struct {
	taskPool
	spec    *Spec
	r       *rng.RNG
	configs []*model.Config
	zipf    *rng.Zipf // non-nil when ConfigPopularity > 0
	reqTime reqTimeDraw
	now     int64
	emitted int
}

// NewGenerator builds a synthetic task source over the given
// configurations list (needed to draw each task's Cpref).
func NewGenerator(r *rng.RNG, spec *Spec, configs []*model.Config) (*Generator, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(configs) == 0 {
		return nil, fmt.Errorf("workload: generator needs a non-empty configurations list")
	}
	g := &Generator{spec: spec, r: r, configs: configs}
	g.reqTime = newReqTimeDraw(spec.TaskReqTimeLow, spec.TaskReqTimeHigh, spec.TaskTimeDist)
	if spec.ConfigPopularity > 0 {
		g.zipf = rng.NewZipf(len(configs), spec.ConfigPopularity)
	}
	return g, nil
}

// Next implements TaskSource.
func (g *Generator) Next() (*model.Task, bool) {
	if g.emitted >= g.spec.Tasks {
		return nil, false
	}
	g.now += g.gap()
	no := g.emitted
	g.emitted++

	var prefNo int
	var needed model.Area
	if g.r.Bool(g.spec.ClosestMatchPct) {
		// Cpref deliberately absent from the configurations list:
		// the scheduler must fall back to C_ClosestMatch. The needed
		// area is drawn from the same distribution as real configs.
		prefNo = len(g.configs) + g.r.Intn(1<<20)
		needed = g.r.Int64Range(g.spec.ConfigAreaLow, g.spec.ConfigAreaHigh)
	} else {
		var cfg *model.Config
		if g.zipf != nil {
			cfg = g.configs[g.zipf.Draw(g.r)]
		} else {
			cfg = g.configs[g.r.Intn(len(g.configs))]
		}
		prefNo = cfg.No
		needed = cfg.ReqArea
	}
	task := g.get(no, needed, prefNo, g.reqTime.draw(g.r), g.now)
	task.Data = needed * 64 // synthetic input payload, feeds the optional data-transfer model
	return task, true
}

// reqTimeDraw is one t_required range and distribution, the single
// draw shared by the Generator and the scenario compiler's per-class
// streams: identical ranges and distribution consume identical RNG
// draws, so a class that mirrors the flag-level spec reproduces its
// sequence exactly. The lognormal's μ and σ depend only on the range,
// so they are computed once, when the stream is built.
type reqTimeDraw struct {
	lo, hi    int64
	dist      DistKind
	mu, sigma float64 // lognormal only
}

// newReqTimeDraw builds the draw over [lo, hi] under dist.
func newReqTimeDraw(lo, hi int64, dist DistKind) reqTimeDraw {
	d := reqTimeDraw{lo: lo, hi: hi, dist: dist}
	if dist == DistLognormal {
		d.mu = (math.Log(float64(lo)) + math.Log(float64(hi))) / 2
		d.sigma = (math.Log(float64(hi)) - math.Log(float64(lo))) / 6
	}
	return d
}

// draw returns one t_required, clamped into [lo, hi].
func (d *reqTimeDraw) draw(r *rng.RNG) int64 {
	switch d.dist {
	case DistLognormal:
		return clamp64(int64(r.Lognormal(d.mu, d.sigma)+0.5), d.lo, d.hi)
	case DistPareto:
		return clamp64(int64(r.Pareto(float64(d.lo), 1.5)+0.5), d.lo, d.hi)
	default:
		return r.Int64Range(d.lo, d.hi)
	}
}

// clamp64 bounds v into [lo, hi].
func clamp64(v, lo, hi int64) int64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// gap draws the next inter-arrival gap.
func (g *Generator) gap() int64 {
	switch g.spec.Arrival {
	case ArrivalPoisson:
		// Exponential gaps with the same mean as U[1, max]:
		// mean = (1+max)/2. Clamp to >= 1 tick.
		mean := float64(1+g.spec.NextTaskMaxInterval) / 2
		gap := int64(g.r.ExpRate(1/mean) + 0.5)
		if gap < 1 {
			gap = 1
		}
		return gap
	default:
		return g.r.Int64Range(1, g.spec.NextTaskMaxInterval)
	}
}

// Drain pulls every remaining task from src into a slice — the
// explicit materialization point. Everything downstream of a Drain is
// O(tasks) in memory; streamed consumers iterate the TaskSource
// directly instead.
//
//lint:deadexport (c) test support: tests of the root, core, gridsim and workload packages materialize sources with it
func Drain(src TaskSource) []*model.Task {
	var out []*model.Task
	for {
		task, ok := src.Next()
		if !ok {
			return out
		}
		out = append(out, task)
	}
}

// SliceSource replays a pre-built task list as a TaskSource. The
// tasks must be valid and ordered by non-decreasing CreateTime.
func SliceSource(tasks []*model.Task) (TaskSource, error) {
	for i, t := range tasks {
		if err := t.Validate(); err != nil {
			return nil, err
		}
		if i > 0 && t.CreateTime < tasks[i-1].CreateTime {
			return nil, fmt.Errorf("workload: task %d arrives before its predecessor", t.No)
		}
	}
	return &sliceSource{tasks: tasks}, nil
}

type sliceSource struct {
	tasks []*model.Task
	next  int
}

// Next implements TaskSource.
func (s *sliceSource) Next() (*model.Task, bool) {
	if s.next >= len(s.tasks) {
		return nil, false
	}
	t := s.tasks[s.next]
	s.next++
	return t, true
}
