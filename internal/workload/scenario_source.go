package workload

import (
	"fmt"
	"sort"

	"dreamsim/internal/model"
	"dreamsim/internal/rng"
)

// This file is the scenario compiler: it lowers a parsed Scenario
// onto a ScenarioSource, the one synthetic TaskSource. A flag-level
// run is the empty scenario. Every scenario compiles the same way —
// one arrival clock per traffic class, merged on the fly by
// earliest-next-arrival — and one seeding rule picks each class's RNG:
//
//   - A degenerate scenario — at most one class, uniform or Poisson
//     arrivals, no area filter, no timeline and no load spike — draws
//     its one class straight from the run's task-stream RNG, with the
//     Spec's own mean gap. The flag-level run is such a scenario, so a
//     scenario that merely restates the flag surface reproduces the
//     flag run byte for byte (the equivalence gate).
//
//   - Every other scenario draws each class from its own RNG
//     substream, seeded from a hash of the class NAME, not its
//     position, so adding or reordering classes never perturbs
//     another class's draws.
//
// Either way the result is a lazy, pooled TaskSource: one task in
// flight per Next call, recycled through a free list, so a run keeps
// its heap bounded by the live task set.

// ClassedSource is implemented by task sources that partition their
// stream into named traffic classes; emitted tasks carry the class
// index in Task.Class. The core switches per-class accounting on when
// a source reports two or more classes.
type ClassedSource interface {
	TaskSource
	// ClassNames returns the class names in Task.Class index order.
	ClassNames() []string
}

// classSeed derives the seed of a class's RNG substream from the
// task-stream seed base and the class name (FNV-1a), so a substream
// depends only on the run seed and the class's own name — never on
// how many other classes exist or where they appear in the file.
func classSeed(base uint64, name string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return base ^ h
}

// classState is one traffic class's compiled generation state.
type classState struct {
	name    string
	r       *rng.RNG
	arrival ArrivalKind
	// Arrival-process parameters at the class's thinned rate.
	uniformMax     int64   // uniform: gap ~ U[1, uniformMax]
	rate           float64 // poisson: gap ~ Exp(rate)
	gshape, gscale float64 // gamma
	wshape, wscale float64 // weibull
	// Per-class attribute draws.
	reqTime        reqTimeDraw
	areaLo, areaHi int64 // closest-match synthetic area range
	closest        float64
	pool           []*model.Config // preferred-config pool (area-filtered)
	zipf           *rng.Zipf       // non-nil when popularity > 0
	next           int64           // absolute tick of the next arrival
}

// ScenarioSource is the compiled task stream of a scenario, of one
// class or many: the repository's one synthetic task source (the
// paper's CreateTask / job submission manager). It is deterministic
// given its RNG, and lazy: each Next draws exactly one task, so a
// million-task workload never exists in memory at once.
type ScenarioSource struct {
	taskPool
	classes  []classState
	names    []string
	timeline []TimePoint
	spikes   []ScheduledEvent
	nconfigs int // full configurations-list size, for synthetic Cpref numbering
	total    int
	emitted  int
	// shared is set when the scenario is degenerate: its one class
	// draws from the run's task-stream RNG, not from a substream.
	shared bool
}

// NewScenarioSource compiles a scenario over the run's Spec and
// configurations list; a nil scenario counts as an empty one, which is
// the flag-level run. r is the run's task-stream RNG: a degenerate
// scenario's class draws from it directly, and any other scenario
// consumes exactly one draw from it to seed the class substreams.
// spec carries the resolved run-level knobs (task count, interval,
// default distributions); Spec fields always win over the scenario's
// own tasks/interval lines, which ApplyDefaults folds in beforehand.
func NewScenarioSource(r *rng.RNG, scn *Scenario, spec *Spec, configs []*model.Config) (*ScenarioSource, error) {
	if scn == nil {
		scn = &Scenario{}
	}
	if err := scn.Validate(); err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if len(configs) == 0 {
		return nil, fmt.Errorf("workload: task source needs a non-empty configurations list")
	}

	classes := scn.Classes
	if len(classes) == 0 {
		// No class blocks: synthesise the single implicit class.
		classes = []ClassSpec{{Name: "all", Fraction: 1, Popularity: -1, ClosestMatch: -1}}
	}
	var totalFrac float64
	for i := range classes {
		totalFrac += classes[i].Fraction
	}
	baseMean := float64(1+spec.NextTaskMaxInterval) / 2

	s := &ScenarioSource{
		classes:  make([]classState, len(classes)),
		names:    make([]string, len(classes)),
		timeline: scn.Timeline,
		nconfigs: len(configs),
		total:    spec.Tasks,
		shared:   degenerate(scn),
	}
	for _, ev := range scn.Events {
		if ev.Kind == EventSpike {
			s.spikes = append(s.spikes, ev)
		}
	}
	var seedBase uint64
	if !s.shared {
		seedBase = r.RandUint64()
	}
	for i := range classes {
		c := &classes[i]
		st := &s.classes[i]
		s.names[i] = c.Name
		st.name = c.Name
		st.r = r
		if !s.shared {
			st.r = rng.New(classSeed(seedBase, c.Name))
		}

		// Thinned arrival: each class runs its own clock at its rate
		// fraction of the scenario-wide process, so the merged stream
		// has the spec's overall mean gap. A degenerate class keeps
		// the Spec's own mean, as the flag-level run draws it. A class
		// whose fraction is tiny next to the others' gets the longest
		// gap a draw may take, not a mean that overflows int64.
		mean := min(baseMean*totalFrac/c.Fraction, maxGap)
		if s.shared {
			mean = baseMean
		}
		a := c.Arrival
		if !a.Set {
			a = scn.Arrival
		}
		if !a.Set {
			a = ArrivalSpec{Set: true, Kind: spec.Arrival}
		}
		st.arrival = a.Kind
		switch a.Kind {
		case ArrivalPoisson:
			st.rate = 1 / mean
		case ArrivalGamma:
			st.gshape, st.gscale = rng.GammaParams(mean, a.CV)
		case ArrivalWeibull:
			st.wshape, st.wscale = rng.WeibullParams(mean, a.CV)
		default:
			st.uniformMax = int64(2*mean - 1 + 0.5)
			if st.uniformMax < 1 {
				st.uniformMax = 1
			}
		}

		st.reqTime = newReqTimeDraw(spec.TaskReqTimeLow, spec.TaskReqTimeHigh, spec.TaskTimeDist)
		if c.ReqTimeLow != 0 || c.ReqTimeHigh != 0 {
			st.reqTime = newReqTimeDraw(c.ReqTimeLow, c.ReqTimeHigh, c.TimeDist)
		}
		st.closest = spec.ClosestMatchPct
		if c.ClosestMatch >= 0 {
			st.closest = c.ClosestMatch
		}
		st.areaLo, st.areaHi = spec.ConfigAreaLow, spec.ConfigAreaHigh
		st.pool = configs
		if c.AreaLow != 0 || c.AreaHigh != 0 {
			st.areaLo, st.areaHi = c.AreaLow, c.AreaHigh
			st.pool = nil
			for _, cfg := range configs {
				if cfg.ReqArea >= c.AreaLow && cfg.ReqArea <= c.AreaHigh {
					st.pool = append(st.pool, cfg)
				}
			}
			if len(st.pool) == 0 {
				return nil, fmt.Errorf("workload: class %q area range [%d,%d] matches no configuration",
					c.Name, c.AreaLow, c.AreaHigh)
			}
		}
		pop := spec.ConfigPopularity
		if c.Popularity >= 0 {
			pop = c.Popularity
		}
		if pop > 0 {
			st.zipf = rng.NewZipf(len(st.pool), pop)
		}
		st.next = s.gap(st, 0)
	}
	return s, nil
}

// NewGenerator builds the flag-level task source over the given
// configurations list (needed to draw each task's Cpref): the
// compiled empty scenario, whose one class draws from r.
//
//lint:deadexport (a) benchsuite, a separate module, calls it
func NewGenerator(r *rng.RNG, spec *Spec, configs []*model.Config) (*ScenarioSource, error) {
	return NewScenarioSource(r, nil, spec, configs)
}

// degenerate reports whether the scenario adds nothing a flag-level
// run cannot express, so its one class draws from the task-stream RNG.
func degenerate(scn *Scenario) bool {
	if len(scn.Classes) > 1 || len(scn.Timeline) > 0 || scn.hasSpikes() {
		return false
	}
	plain := func(a ArrivalSpec) bool {
		return !a.Set || a.Kind == ArrivalUniform || a.Kind == ArrivalPoisson
	}
	if !plain(scn.Arrival) {
		return false
	}
	if len(scn.Classes) == 1 {
		c := &scn.Classes[0]
		if !plain(c.Arrival) || c.AreaLow != 0 || c.AreaHigh != 0 {
			return false
		}
	}
	return true
}

// ClassNames implements ClassedSource.
func (s *ScenarioSource) ClassNames() []string { return s.names }

// Next implements TaskSource: emit the class with the earliest next
// arrival (ties to the lower class index), then advance its clock.
func (s *ScenarioSource) Next() (*model.Task, bool) {
	if s.emitted >= s.total {
		return nil, false
	}
	best := 0
	for i := 1; i < len(s.classes); i++ {
		if s.classes[i].next < s.classes[best].next {
			best = i
		}
	}
	st := &s.classes[best]
	now := st.next
	no := s.emitted
	s.emitted++

	var prefNo int
	var needed model.Area
	if st.r.Bool(st.closest) {
		// Cpref absent from the list, forcing C_ClosestMatch: the
		// synthetic preference is offset past the FULL list, so a
		// filtered pool cannot alias a real config, and drawn from
		// the class's own stream and area range.
		prefNo = s.nconfigs + st.r.Intn(1<<20)
		needed = st.r.Int64Range(st.areaLo, st.areaHi)
	} else {
		var cfg *model.Config
		if st.zipf != nil {
			cfg = st.pool[st.zipf.Draw(st.r)]
		} else {
			cfg = st.pool[st.r.Intn(len(st.pool))]
		}
		prefNo = cfg.No
		needed = cfg.ReqArea
	}
	task := s.get(no, needed, prefNo, st.reqTime.draw(st.r), now)
	task.Class = best
	task.Data = needed * 64 // synthetic input payload, feeds the optional data-transfer model
	st.next = now + s.gap(st, now)
	return task, true
}

// gap draws the class's next inter-arrival gap at absolute tick at,
// dividing the base draw by the load multiplier in force (timeline ×
// active spikes): a 2x multiplier halves the gaps, doubling the rate.
// A source with neither has a multiplier of 1 throughout and skips
// the division.
func (s *ScenarioSource) gap(st *classState, at int64) int64 {
	var q float64
	switch st.arrival {
	case ArrivalPoisson:
		q = st.r.ExpRate(st.rate)
	case ArrivalGamma:
		q = st.r.Gamma(st.gshape, st.gscale)
	case ArrivalWeibull:
		q = st.r.Weibull(st.wshape, st.wscale)
	default:
		q = float64(st.r.Int64Range(1, st.uniformMax))
	}
	if len(s.timeline) > 0 || len(s.spikes) > 0 {
		q /= s.mult(at)
	}
	// Clamp before the int64 conversion: a near-zero multiplier must
	// stall the class, not overflow its clock.
	q = min(q, maxGap)
	g := int64(q + 0.5)
	if g < 1 {
		g = 1
	}
	return g
}

// maxGap is the longest inter-arrival gap, in ticks, a class draws.
const maxGap = 1e12

// mult evaluates the load multiplier at a tick: the piecewise-linear
// timeline (flat beyond its ends, 1 when absent) times every spike
// window covering the tick.
func (s *ScenarioSource) mult(at int64) float64 {
	m := 1.0
	if n := len(s.timeline); n > 0 {
		tl := s.timeline
		switch {
		case at <= tl[0].At:
			m = tl[0].Mult
		case at >= tl[n-1].At:
			m = tl[n-1].Mult
		default:
			i := sort.Search(n, func(j int) bool { return tl[j].At >= at })
			a, b := tl[i-1], tl[i]
			f := float64(at-a.At) / float64(b.At-a.At)
			m = a.Mult + f*(b.Mult-a.Mult)
		}
	}
	for _, ev := range s.spikes {
		if at >= ev.Start && at < ev.End {
			m *= ev.Mult
		}
	}
	return m
}
