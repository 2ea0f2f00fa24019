package sched

import (
	"fmt"

	"dreamsim/internal/invariant"
	"dreamsim/internal/model"
	"dreamsim/internal/resinfo"
	"dreamsim/internal/rng"
)

// Policy decides task placement. Decide examines the whole system for
// a newly arrived task; DecideOnNode is the targeted retry the
// suspension queue runs when one node releases resources (paper:
// "each time a node finishes executing a task, the suspension queue
// is checked ... to determine if a suitable task is waiting in the
// queue which can be executed on the node").
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Decide returns the verdict for task given the current state.
	Decide(m *resinfo.Manager, task *model.Task) Decision
	// DecideOnNode tries to place task specifically on node; a
	// non-placing decision means "leave it queued".
	DecideOnNode(m *resinfo.Manager, task *model.Task, node *model.Node) Decision
}

// Placement selects the best-match criterion of the Allocation phase.
type Placement int

const (
	// BestFit picks the idle region on the node with minimum
	// AvailableArea — the paper's criterion ("so that the nodes with
	// larger AvailableArea are utilized for later re-configurations").
	BestFit Placement = iota
	// FirstFit picks the first usable idle region in list order.
	FirstFit
	// WorstFit picks the node with maximum AvailableArea (ablation).
	WorstFit
	// RandomFit picks uniformly among usable idle regions (ablation).
	RandomFit
)

// String implements fmt.Stringer.
func (p Placement) String() string {
	switch p {
	case BestFit:
		return "best-fit"
	case FirstFit:
		return "first-fit"
	case WorstFit:
		return "worst-fit"
	case RandomFit:
		return "random-fit"
	default:
		return fmt.Sprintf("Placement(%d)", int(p))
	}
}

// Options tune the paper policy; the zero value reproduces the paper.
type Options struct {
	// Placement selects the Allocation-phase criterion.
	Placement Placement
	// LoadBalance, when true, breaks AvailableArea ties toward the
	// node currently running fewer tasks (the load balancing module
	// the paper lists as a framework component and future work).
	LoadBalance bool
	// DisableSuspension turns the suspension queue off: tasks that
	// would suspend are discarded instead (ablation).
	DisableSuspension bool
	// RNG is required by RandomFit.
	RNG *rng.RNG
}

// paperPolicy is the case-study algorithm of §V (Fig. 5 + Alg. 1).
type paperPolicy struct {
	opts Options

	// evict is DecideOnNode's reusable victim buffer; the returned
	// Decision's Evict slice is valid until the policy's next decision
	// (the scheduler consumes it immediately via Apply).
	evict []*model.Entry
}

// New returns the paper's scheduling algorithm with the given
// options. The same policy serves both reconfiguration scenarios: the
// nodes' PartialMode flags determine which phases can fire. A Policy
// carries per-decision scratch state, so one instance must not serve
// concurrently running simulators — give each its own.
func New(opts Options) Policy {
	if opts.Placement == RandomFit && opts.RNG == nil {
		panic("sched: RandomFit requires Options.RNG")
	}
	return &paperPolicy{opts: opts}
}

// Name implements Policy.
func (p *paperPolicy) Name() string {
	n := "paper/" + p.opts.Placement.String()
	if p.opts.LoadBalance {
		n += "+lb"
	}
	if p.opts.DisableSuspension {
		n += "-nosus"
	}
	return n
}

// resolveConfig runs the exact-match / closest-match preamble of
// Fig. 5. A nil config means the task must be discarded. The result
// is cached on the task so suspension-queue retries skip the
// configuration searches (the first resolution is metered normally).
func (p *paperPolicy) resolveConfig(m *resinfo.Manager, task *model.Task) (cfg *model.Config, closest bool) {
	if task.Resolved != nil {
		return task.Resolved, task.ResolvedClosest
	}
	cfg = m.FindPreferredConfig(task.PrefConfig)
	if cfg == nil {
		cfg, closest = m.FindClosestConfig(task.NeededArea), true
	}
	task.Resolved, task.ResolvedClosest = cfg, closest
	return cfg, closest
}

// Decide implements Policy: the four-phase algorithm of Fig. 5.
func (p *paperPolicy) Decide(m *resinfo.Manager, task *model.Task) Decision {
	cfg, closest := p.resolveConfig(m, task)
	if cfg == nil {
		return Decision{Action: ActDiscard}
	}
	d := Decision{Config: cfg, ClosestMatch: closest}

	// Phase 1 — Allocation: an idle region already configured with cfg.
	if e := p.pickIdleEntry(m, cfg.No); e != nil {
		d.Action, d.Entry = ActAllocate, e
		return d
	}
	// Phase 2 — Configuration: best blank node.
	if n := m.BestBlankNode(cfg); n != nil {
		d.Action, d.Node = ActConfigure, n
		return d
	}
	// Phase 3 — Partial configuration: free fabric on an operating node.
	if n := m.BestPartiallyBlankNode(cfg); n != nil {
		d.Action, d.Node = ActPartialConfigure, n
		return d
	}
	// Phase 4 — Partial re-configuration: reclaim idle regions (Alg. 1).
	if n, victims := m.FindAnyIdleNode(cfg); n != nil {
		d.Action, d.Node, d.Evict = ActReconfigure, n, victims
		return d
	}
	// Suspension or discard. A down node that could fit counts too:
	// tasks displaced by a transient outage wait for recovery rather
	// than being discarded (short-circuit keeps fault-free metering
	// identical — the uncharged down-probe only runs after the paper's
	// busy-fit check already said no).
	if !p.opts.DisableSuspension && (m.AnyBusyNodeCouldFit(cfg) || m.AnyDownNodeCouldFit(cfg)) {
		d.Action = ActSuspend
		return d
	}
	d.Action = ActDiscard
	return d
}

// DecideOnNode implements Policy: the targeted retry run when node
// releases resources. The freed node keeps its configuration, so a
// suspended task "which can be executed on the node" is first and
// foremost one whose configuration is resident and idle. A node in
// partial mode can additionally have a region rewritten at run time
// while its other regions keep executing — the defining capability
// under study — so partial retries may also configure free fabric or
// reclaim idle regions. A full-configuration node cannot be rewritten
// piecewise; rewriting it wholesale is the arrival algorithm's job
// (and the end-of-run drain's), not the retry's. This asymmetry is
// what produces the paper's Fig. 7/10 ordering (more, cheaper
// reconfigurations under partial reconfiguration).
func (p *paperPolicy) DecideOnNode(m *resinfo.Manager, task *model.Task, node *model.Node) Decision {
	cfg, closest := p.resolveConfig(m, task)
	if cfg == nil {
		return Decision{Action: ActDiscard}
	}
	d := Decision{Config: cfg, ClosestMatch: closest}

	// Allocation: an idle region with cfg on this node.
	var alloc *model.Entry
	var steps uint64
	for _, e := range node.Entries {
		steps++
		if e.Idle() && e.Config.No == cfg.No {
			alloc = e
			break
		}
	}
	m.ChargeSearch(steps)
	assertRunnable(alloc)
	if alloc != nil {
		d.Action, d.Entry = ActAllocate, alloc
		return d
	}
	// Configuration: a blank node takes the bitstream without any
	// eviction in either mode (blank nodes cannot arise from a
	// completion, but drains and synthetic scenarios produce them).
	if !node.HasCaps(cfg.RequiredCaps) {
		d.Action = ActSuspend // this node can never host cfg
		return d
	}
	if node.Blank() && node.TotalArea >= cfg.ReqArea {
		d.Action, d.Node = ActConfigure, node
		return d
	}
	if !node.PartialMode {
		d.Action = ActSuspend // full mode: only a direct match runs here
		return d
	}
	// Partial configuration: free fabric on this node.
	if node.AvailableArea >= cfg.ReqArea {
		d.Action, d.Node = ActPartialConfigure, node
		return d
	}
	// Partial re-configuration: reclaim this node's idle regions.
	accum := node.AvailableArea
	victims := p.evict[:0]
	steps = 0
	for _, e := range node.Entries {
		steps++
		if e.Idle() {
			accum += e.Config.ReqArea
			victims = append(victims, e)
			if accum >= cfg.ReqArea {
				break
			}
		}
	}
	p.evict = victims
	m.ChargeSearch(steps)
	if accum >= cfg.ReqArea && len(victims) > 0 {
		d.Action, d.Node, d.Evict = ActReconfigure, node, victims
		return d
	}
	d.Action = ActSuspend // stay queued
	return d
}

// pickIdleEntry runs the Allocation-phase selection under the
// configured placement criterion. Every listed region is usable: a
// full-mode node holds at most one region, so an idle region there
// means the node runs nothing (assertRunnable checks it).
func (p *paperPolicy) pickIdleEntry(m *resinfo.Manager, cfgNo int) *model.Entry {
	idle := m.Idle(cfgNo)
	var pick *model.Entry
	var steps uint64
	switch p.opts.Placement {
	case FirstFit:
		steps = idle.Each(func(e *model.Entry) bool {
			pick = e
			return false
		})
	case WorstFit:
		pick, steps = idle.WorstFit()
	case RandomFit:
		seen := int64(0)
		steps = idle.Each(func(e *model.Entry) bool {
			seen++
			if p.opts.RNG.Int64Range(1, seen) == 1 {
				pick = e
			}
			return true
		})
	default: // BestFit, the paper criterion, optionally load-balanced.
		if p.opts.LoadBalance {
			pick, steps = idle.BestFitBalanced()
		} else {
			pick, steps = idle.BestFit()
		}
	}
	m.ChargeSearch(steps)
	assertRunnable(pick)
	return pick
}

// assertRunnable checks, in the -tags invariants build, that an idle
// region the Allocation phase picked can take a task now: its node is
// in partial mode or runs nothing.
func assertRunnable(e *model.Entry) {
	if invariant.Enabled && e != nil {
		invariant.Assertf(e.Node.PartialMode || e.Node.RunningTasks() == 0,
			"sched: idle region %v sits on full-mode node %d, which runs %d tasks",
			e, e.Node.No, e.Node.RunningTasks())
	}
}
