package resinfo_test

// The placement queries checked against an independent reference: the
// paper's searches written once as plain walks over the node and
// configuration lists (Fig. 5's phases and Algorithm 1), with no SoA
// arrays, blocks or indexes. A randomized sequence of state
// transitions drives one manager; after every transition each query's
// answer and its SchedulerSearch charge must equal the reference
// walk's, and the manager's node census must equal a recount.

import (
	"fmt"
	"slices"
	"testing"

	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
	"dreamsim/internal/resinfo"
	"dreamsim/internal/rng"
)

// population synthesises nodes and configs. Nodes offer each listed
// capability with probability 0.6 and configurations require each with
// probability 0.2; a capability space too large for that to leave any
// node compatible (more than eight names) is offered with probability
// 0.3, and configuration i requires caps[i mod len(caps)] only, so
// every name is in use once there are as many configurations.
func population(seed uint64, nodes, configs int, caps []string) ([]*model.Node, []*model.Config) {
	return shapedPopulation(seed, nodes, configs, caps, areaShape{})
}

// areaShape selects how a population draws its areas. The zero shape
// draws node TotalArea uniformly from [1000, 4000] and configuration
// ReqArea from [200, 2000].
type areaShape struct {
	nodeAreas []int64 // if set, node TotalArea is drawn from this set
	cfgAreas  []int64 // if set, configuration ReqArea is drawn from this set
	scale     int64   // if set, multiplies every area, probes' too
}

// area draws one area from set, or uniformly from [lo, hi] when set is
// empty, and applies the scale.
func (a areaShape) area(r *rng.RNG, set []int64, lo, hi int) int64 {
	if len(set) > 0 {
		return set[r.Intn(len(set))] * a.unit()
	}
	return int64(lo+r.Intn(hi-lo+1)) * a.unit()
}

func (a areaShape) unit() int64 { return max(a.scale, 1) }

// shapedPopulation is population with the areas drawn by shape.
func shapedPopulation(seed uint64, nodes, configs int, caps []string, shape areaShape) ([]*model.Node, []*model.Config) {
	r := rng.New(seed)
	large := len(caps) > 8
	offer := 0.6
	if large {
		offer = 0.3
	}
	ns := make([]*model.Node, nodes)
	for i := range ns {
		partial := r.Bool(0.5)
		ns[i] = model.NewNode(i, shape.area(r, shape.nodeAreas, 1000, 4000), partial)
		for _, c := range caps {
			if r.Bool(offer) {
				ns[i].Caps = append(ns[i].Caps, c)
			}
		}
	}
	cs := make([]*model.Config, configs)
	for i := range cs {
		cs[i] = &model.Config{
			No:         i,
			ReqArea:    shape.area(r, shape.cfgAreas, 200, 2000),
			Ptype:      model.PTypeSoftCore,
			ConfigTime: int64(10 + r.Intn(11)),
		}
		if large {
			cs[i].RequiredCaps = []string{caps[i%len(caps)]}
			continue
		}
		for _, c := range caps {
			if r.Bool(0.2) {
				cs[i].RequiredCaps = append(cs[i].RequiredCaps, c)
			}
		}
	}
	return ns, cs
}

// reference answers the placement queries by walking the lists. Each
// method returns its answer and the steps the walk charges.
type reference struct {
	nodes   []*model.Node
	configs []*model.Config
}

func (r reference) preferredConfig(no int) (*model.Config, uint64) {
	for i, cfg := range r.configs {
		if cfg.No == no {
			return cfg, uint64(i) + 1
		}
	}
	return nil, uint64(len(r.configs))
}

func (r reference) closestConfig(area int64) (*model.Config, uint64) {
	var best *model.Config
	for _, cfg := range r.configs {
		if cfg.ReqArea >= area && (best == nil || cfg.ReqArea < best.ReqArea) {
			best = cfg
		}
	}
	return best, uint64(len(r.configs))
}

// bestBlank is the Configuration phase: the blank, working,
// compatible node with the smallest sufficient TotalArea.
func (r reference) bestBlank(cfg *model.Config) (*model.Node, uint64) {
	var best *model.Node
	for _, n := range r.nodes {
		if len(n.Entries) == 0 && !n.Down && n.HasCaps(cfg.RequiredCaps) &&
			n.TotalArea >= cfg.ReqArea && (best == nil || n.TotalArea < best.TotalArea) {
			best = n
		}
	}
	return best, uint64(len(r.nodes))
}

// bestPartial is the Partial configuration phase: the configured
// partial-mode compatible node with the smallest sufficient
// AvailableArea.
func (r reference) bestPartial(cfg *model.Config) (*model.Node, uint64) {
	var best *model.Node
	for _, n := range r.nodes {
		if n.PartialMode && len(n.Entries) > 0 && n.HasCaps(cfg.RequiredCaps) &&
			n.AvailableArea >= cfg.ReqArea && (best == nil || n.AvailableArea < best.AvailableArea) {
			best = n
		}
	}
	return best, uint64(len(r.nodes))
}

// anyIdle is Algorithm 1: one step per incompatible node and per
// examined entry; the first node whose AvailableArea plus idle regions
// reaches the request is returned with those regions.
func (r reference) anyIdle(cfg *model.Config) (*model.Node, []*model.Entry, uint64) {
	var steps uint64
	for _, n := range r.nodes {
		if !n.HasCaps(cfg.RequiredCaps) {
			steps++
			continue
		}
		accum := n.AvailableArea
		var victims []*model.Entry
		for _, e := range n.Entries {
			steps++
			if e.Task == nil {
				accum += e.Config.ReqArea
				victims = append(victims, e)
				if accum >= cfg.ReqArea {
					return n, victims, steps
				}
			}
		}
	}
	return nil, nil, steps
}

// anyBusyFit is the suspend-or-discard check: the walk stops at the
// first busy compatible node whose TotalArea suffices.
func (r reference) anyBusyFit(cfg *model.Config) (bool, uint64) {
	for i, n := range r.nodes {
		if n.RunningTasks() > 0 && n.HasCaps(cfg.RequiredCaps) && n.TotalArea >= cfg.ReqArea {
			return true, uint64(i) + 1
		}
	}
	return false, uint64(len(r.nodes))
}

// anyDownFit is the uncharged fault-path probe.
func (r reference) anyDownFit(cfg *model.Config) bool {
	for _, n := range r.nodes {
		if n.Down && n.HasCaps(cfg.RequiredCaps) && n.TotalArea >= cfg.ReqArea {
			return true
		}
	}
	return false
}

// census recounts the node census from the nodes' own state.
func (r reference) census() resinfo.Census {
	c := resinfo.Census{Nodes: len(r.nodes)}
	for _, n := range r.nodes {
		c.TotalArea += n.TotalArea
		c.AvailableArea += n.AvailableArea
		running := 0
		for _, e := range n.Entries {
			if e.Task != nil {
				running++
			}
		}
		switch {
		case n.Down:
			c.Down++
		case len(n.Entries) == 0:
			c.Blank++
		case running > 0:
			c.Busy++
		}
		if len(n.Entries) > 0 {
			c.WastedArea += n.AvailableArea
		}
	}
	return c
}

// refRunner drives one manager through random transitions and checks
// every query against the reference.
type refRunner struct {
	t        *testing.T
	m        *resinfo.Manager
	c        *metrics.Counters
	ref      reference
	caps     []string
	unit     int64 // the population's area scale
	r        *rng.RNG
	nextTask int
}

// charged runs one query and returns the SchedulerSearch it charged.
func (d *refRunner) charged(query func()) uint64 {
	before := d.c.SchedulerSearch
	query()
	return d.c.SchedulerSearch - before
}

func (d *refRunner) sameNode(what string, got, want *model.Node, gotSteps, wantSteps uint64) {
	d.t.Helper()
	if got != want {
		d.t.Fatalf("%s returned %v, reference %v", what, got, want)
	}
	if gotSteps != wantSteps {
		d.t.Fatalf("%s charged %d steps, reference %d", what, gotSteps, wantSteps)
	}
}

// probe draws a query configuration: a listed one, or an unlisted one
// with any area and capabilities, sometimes a capability no node or
// configuration declares.
func (d *refRunner) probe() *model.Config {
	r := d.r
	if r.Bool(0.6) {
		return d.ref.configs[r.Intn(len(d.ref.configs))]
	}
	cfg := &model.Config{No: -1, ReqArea: int64(1+r.Intn(4500)) * d.unit, ConfigTime: 10}
	if len(d.caps) > 0 && r.Bool(0.5) {
		cfg.RequiredCaps = []string{d.caps[r.Intn(len(d.caps))]}
	}
	if r.Bool(0.05) {
		cfg.RequiredCaps = append(cfg.RequiredCaps, "ghost")
	}
	return cfg
}

// sameCensus checks the manager's census against the recount.
func (d *refRunner) sameCensus(what string) {
	d.t.Helper()
	if got, want := d.m.Census(), d.ref.census(); got != want {
		d.t.Fatalf("%s: census %+v, recount %+v", what, got, want)
	}
}

// queryAll checks every placement query for one probe and returns
// Algorithm 1's answer.
func (d *refRunner) queryAll(cfg *model.Config) (*model.Node, []*model.Entry) {
	d.t.Helper()
	var n *model.Node
	var victims []*model.Entry
	var fit bool

	no := -2 + d.r.Intn(len(d.ref.configs)+4)
	var pc *model.Config
	got := d.charged(func() { pc = d.m.FindPreferredConfig(no) })
	want, steps := d.ref.preferredConfig(no)
	if pc != want || got != steps {
		d.t.Fatalf("FindPreferredConfig(%d) = %v charging %d, reference %v charging %d", no, pc, got, want, steps)
	}
	area := int64(1+d.r.Intn(2200)) * d.unit
	got = d.charged(func() { pc = d.m.FindClosestConfig(area) })
	want, steps = d.ref.closestConfig(area)
	if pc != want || got != steps {
		d.t.Fatalf("FindClosestConfig(%d) = %v charging %d, reference %v charging %d", area, pc, got, want, steps)
	}

	got = d.charged(func() { n = d.m.BestBlankNode(cfg) })
	wn, steps := d.ref.bestBlank(cfg)
	d.sameNode(fmt.Sprintf("BestBlankNode(%v)", cfg), n, wn, got, steps)

	got = d.charged(func() { n = d.m.BestPartiallyBlankNode(cfg) })
	wn, steps = d.ref.bestPartial(cfg)
	d.sameNode(fmt.Sprintf("BestPartiallyBlankNode(%v)", cfg), n, wn, got, steps)

	got = d.charged(func() { n, victims = d.m.FindAnyIdleNode(cfg) })
	wn, wv, steps := d.ref.anyIdle(cfg)
	d.sameNode(fmt.Sprintf("FindAnyIdleNode(%v)", cfg), n, wn, got, steps)
	if !slices.Equal(victims, wv) {
		d.t.Fatalf("FindAnyIdleNode(%v) victims %v, reference %v", cfg, victims, wv)
	}
	gotN, gotV := n, victims

	got = d.charged(func() { fit = d.m.AnyBusyNodeCouldFit(cfg) })
	wf, steps := d.ref.anyBusyFit(cfg)
	if fit != wf || got != steps {
		d.t.Fatalf("AnyBusyNodeCouldFit(%v) = %v charging %d, reference %v charging %d", cfg, fit, got, wf, steps)
	}
	got = d.charged(func() { fit = d.m.AnyDownNodeCouldFit(cfg) })
	if wf := d.ref.anyDownFit(cfg); fit != wf || got != 0 {
		d.t.Fatalf("AnyDownNodeCouldFit(%v) = %v charging %d, reference %v uncharged", cfg, fit, got, wf)
	}
	return gotN, gotV
}

// idleEntries returns node's configured regions that run no task.
func idleEntries(node *model.Node) []*model.Entry {
	var idle []*model.Entry
	for _, e := range node.Entries {
		if e.Task == nil {
			idle = append(idle, e)
		}
	}
	return idle
}

// mutate applies one random state transition to a random node.
func (d *refRunner) mutate() {
	d.t.Helper()
	r := d.r
	node := d.ref.nodes[r.Intn(len(d.ref.nodes))]
	var err error
	switch op := r.Intn(14); {
	case op < 5: // Configure a listed configuration that fits.
		cfg := d.ref.configs[r.Intn(len(d.ref.configs))]
		if node.Down || (!node.PartialMode && len(node.Entries) > 0) ||
			cfg.ReqArea > node.AvailableArea || !node.HasCaps(cfg.RequiredCaps) {
			return
		}
		_, err = d.m.Configure(node, cfg)
	case op < 9: // Start a task on an idle region.
		idle := idleEntries(node)
		if len(idle) == 0 || (!node.PartialMode && node.RunningTasks() > 0) {
			return
		}
		d.nextTask++
		err = d.m.StartTask(idle[r.Intn(len(idle))], &model.Task{No: d.nextTask, AssignedConfig: -1})
	case op < 11: // Finish a running task.
		var busy []*model.Task
		for _, e := range node.Entries {
			if e.Task != nil {
				busy = append(busy, e.Task)
			}
		}
		if len(busy) == 0 {
			return
		}
		_, err = d.m.FinishTask(node, busy[r.Intn(len(busy))])
	case op == 11: // Evict a prefix of the idle regions.
		idle := idleEntries(node)
		if len(idle) == 0 {
			return
		}
		err = d.m.EvictIdle(node, idle[:1+r.Intn(len(idle))])
	case op == 12: // Blank a node running nothing.
		if len(node.Entries) == 0 || node.RunningTasks() > 0 {
			return
		}
		err = d.m.BlankNode(node)
	default: // Crash a working node, or recover a down one.
		if node.Down {
			err = d.m.RecoverNode(node)
		} else if r.Bool(0.3) {
			_, err = d.m.CrashNode(node)
		}
	}
	if err != nil {
		d.t.Fatal(err)
	}
	d.sameCensus(fmt.Sprintf("after a transition of node %d", node.No))
}

// saturate configures every blank working node with the first listed
// configuration that fits it and crashes the nodes none fits, so that
// no node is blank.
func (d *refRunner) saturate() {
	d.t.Helper()
	for _, n := range d.ref.nodes {
		if n.Down || len(n.Entries) > 0 {
			continue
		}
		var err error
		if i := slices.IndexFunc(d.ref.configs, func(cfg *model.Config) bool {
			return cfg.ReqArea <= n.AvailableArea && n.HasCaps(cfg.RequiredCaps)
		}); i >= 0 {
			_, err = d.m.Configure(n, d.ref.configs[i])
		} else {
			_, err = d.m.CrashNode(n)
		}
		if err != nil {
			d.t.Fatal(err)
		}
		d.sameCensus(fmt.Sprintf("saturating node %d", n.No))
	}
	for _, n := range d.ref.nodes {
		if len(n.Entries) == 0 && !n.Down {
			d.t.Fatalf("node %d is still blank after saturation", n.No)
		}
	}
}

// revive crashes every third working node and recovers every down
// one, so the recovered nodes come back blank.
func (d *refRunner) revive() {
	d.t.Helper()
	for i, n := range d.ref.nodes {
		if !n.Down && i%3 == 0 {
			if _, err := d.m.CrashNode(n); err != nil {
				d.t.Fatal(err)
			}
			d.sameCensus(fmt.Sprintf("crashing node %d", n.No))
		}
		if n.Down {
			if err := d.m.RecoverNode(n); err != nil {
				d.t.Fatal(err)
			}
			d.sameCensus(fmt.Sprintf("recovering node %d", n.No))
		}
	}
}

// queryPhase checks the queries for a few probes, then the invariants.
func (d *refRunner) queryPhase(what string) {
	d.t.Helper()
	for i := 0; i < 20; i++ {
		d.queryAll(d.probe())
	}
	if err := d.m.CheckInvariants(); err != nil {
		d.t.Fatalf("%s: %v", what, err)
	}
}

func runReference(t *testing.T, seed uint64, nodes int, caps []string, shape areaShape) {
	configs := 25
	if len(caps) > 64 {
		configs = len(caps) + 5
	}
	ns, cs := shapedPopulation(seed, nodes, configs, caps, shape)
	c := &metrics.Counters{}
	m, err := resinfo.New(ns, cs, c)
	if err != nil {
		t.Fatal(err)
	}
	d := &refRunner{t: t, m: m, c: c, ref: reference{ns, cs}, caps: caps, unit: shape.unit(), r: rng.New(seed ^ 0x5eed)}
	d.sameCensus("after New")
	steps := 400 + 2*nodes
	for step := 0; step < steps; step++ {
		d.mutate()
		cfg := d.probe()
		n, victims := d.queryAll(cfg)
		// Apply some of Algorithm 1's answers as the scheduler would:
		// evict the victims, then configure the freed area.
		if n != nil && cfg.No >= 0 && d.r.Bool(0.3) {
			if err := m.EvictIdle(n, victims); err != nil {
				t.Fatal(err)
			}
			if _, err := m.Configure(n, cfg); err != nil {
				t.Fatal(err)
			}
			d.sameCensus(fmt.Sprintf("step %d: applying Algorithm 1's answer", step))
		}
		if step%97 == 0 || step == steps-1 {
			if err := m.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
	}
	// No blank node left, then blank nodes back from crash and recovery.
	d.saturate()
	d.queryPhase("saturated")
	d.revive()
	d.queryPhase("revived")
}

// capSpaces are the capability name spaces the reference comparison
// runs on: none, three kinds, and 70 names, more than a 64-bit mask
// can hold.
func capSpaces() []struct {
	name string
	caps []string
} {
	huge := make([]string, 70)
	for i := range huge {
		huge[i] = fmt.Sprintf("cap-%d", i)
	}
	return []struct {
		name string
		caps []string
	}{
		{"homogeneous", nil},
		{"capabilities", []string{"bram", "dsp", "serdes"}},
		{"huge-cap-space", huge},
	}
}

// TestPlacementQueriesMatchReference runs the reference comparison on
// populations around the 64-slot block size in every capability
// space.
func TestPlacementQueriesMatchReference(t *testing.T) {
	for _, space := range capSpaces() {
		t.Run(space.name, func(t *testing.T) {
			for _, nodes := range []int{1, 63, 64, 65, 200, 1000} {
				t.Run(fmt.Sprintf("nodes=%d", nodes), func(t *testing.T) {
					runReference(t, uint64(nodes)*7+uint64(len(space.caps)), nodes, space.caps, areaShape{})
				})
			}
		})
	}
}

// TestPlacementQueriesMatchReferenceTiesAndRange reruns the comparison
// on area shapes that stress the searches' orderings: node TotalArea
// drawn from three values, so equal blank nodes must resolve to the
// lower node; configurations sharing ReqArea values, so the closest
// match must be the first in list order; and areas spread above 2^32.
func TestPlacementQueriesMatchReferenceTiesAndRange(t *testing.T) {
	shapes := []struct {
		name  string
		shape areaShape
	}{
		{"tied-node-areas", areaShape{nodeAreas: []int64{1500, 2500, 3500}}},
		{"tied-config-areas", areaShape{cfgAreas: []int64{300, 700, 1200, 1900}}},
		{"areas-above-2^32", areaShape{scale: 1<<23 + 7}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			for _, space := range capSpaces() {
				for _, nodes := range []int{64, 65, 300} {
					t.Run(fmt.Sprintf("%s/nodes=%d", space.name, nodes), func(t *testing.T) {
						runReference(t, uint64(nodes)*11+uint64(len(space.caps)), nodes, space.caps, sh.shape)
					})
				}
			}
		})
	}
}
