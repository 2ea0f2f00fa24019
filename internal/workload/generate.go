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
// *ScenarioSource (synthetic, for flag-level runs and scenario files
// alike), *TraceReader (recorded workloads) and the SliceSource replay
// wrapper. Sources that additionally implement Recycler hand out
// pooled task structs.
type TaskSource interface {
	// Next returns the next task in arrival order, or ok=false when
	// the stream is exhausted. Tasks arrive with CreateTime set and
	// strictly non-decreasing.
	Next() (task *model.Task, ok bool)
}

// reqTimeDraw is one traffic class's t_required range and
// distribution. The lognormal's μ and σ depend only on the range, so
// they are computed once, when the source is built.
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
