package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"dreamsim/internal/core"
	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
	"dreamsim/internal/report"
	"dreamsim/internal/resinfo"
	"dreamsim/internal/rng"
	"dreamsim/internal/sched"
	"dreamsim/internal/workload"
)

// The traced pass times each layer from outside the engine: it wraps
// the two interfaces core.Params already accepts, sched.Policy and
// workload.TaskSource, and records spans around the calls the suite
// makes itself (population, resinfo.New, core.New, the event loop,
// Finish, rendering). Whole-phase spans are kept in full; per-call
// spans are folded into a count, busy time and histogram under their
// run span, so a million decisions cost a fixed-size record.

// span is one timed interval; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// calls is a folded per-call span: how often a layer was entered
// under one run span, its summed duration and their histogram.
type calls struct {
	n, busy int64
	hist    logHist
}

// add folds in one call of duration d.
func (c *calls) add(d int64) {
	c.n++
	c.busy += d
	c.hist.add(d)
}

func (c *calls) merge(o *calls) {
	c.n += o.n
	c.busy += o.busy
	c.hist.merge(&o.hist)
}

// folded is the serialised form of a calls record.
type folded struct {
	Span   int    `json:"span"`
	Layer  string `json:"layer"`
	Calls  int64  `json:"calls"`
	BusyNs int64  `json:"busy_ns"`
	P50Ns  int64  `json:"p50_ns"`
	P99Ns  int64  `json:"p99_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	Spans  []span   `json:"spans"`
	Folded []folded `json:"folded"`
}

func (t *tracer) begin(name string, parent int) int {
	t.Spans = append(t.Spans, span{ID: len(t.Spans) + 1, Parent: parent, Name: name, Start: now()})
	return len(t.Spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) int64 {
	s := &t.Spans[id-1]
	s.End = now()
	return s.End - s.Start
}

// record appends an interval measured elsewhere (checkpoint samples).
func (t *tracer) record(name string, parent int, start, end int64) {
	t.Spans = append(t.Spans, span{ID: len(t.Spans) + 1, Parent: parent, Name: name, Start: start, End: end})
}

func (t *tracer) fold(runSpan int, layer string, c *calls) {
	t.Folded = append(t.Folded, folded{Span: runSpan, Layer: layer, Calls: c.n, BusyNs: c.busy,
		P50Ns: c.hist.quantile(0.5), P99Ns: c.hist.quantile(0.99)})
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// numActions counts the sched.Action values, ActAllocate to ActDiscard.
const numActions = int(sched.ActDiscard) + 1

// tracedPolicy times every decision of the paper policy it wraps.
// Giving core a custom policy turns same-tick batching off, so the
// traced pass measures sequential dispatch.
type tracedPolicy struct {
	inner       sched.Policy
	decide      calls
	outcome     [numActions]calls
	retry       calls
	retryPlaced int64
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Decide(m *resinfo.Manager, task *model.Task) sched.Decision {
	t0 := now()
	d := p.inner.Decide(m, task)
	dt := now() - t0
	p.decide.add(dt)
	p.outcome[d.Action].add(dt)
	return d
}

func (p *tracedPolicy) DecideOnNode(m *resinfo.Manager, task *model.Task, node *model.Node) sched.Decision {
	t0 := now()
	d := p.inner.DecideOnNode(m, task, node)
	p.retry.add(now() - t0)
	if d.Places() {
		p.retryPlaced++
	}
	return d
}

// tracedSource times every Next of the source it wraps. It forwards
// Release and ClassNames whatever the inner source implements: core
// treats a no-op Release and a nil class list exactly like their
// absence.
type tracedSource struct {
	inner workload.TaskSource
	next  calls
}

func (s *tracedSource) Next() (*model.Task, bool) {
	t0 := now()
	t, ok := s.inner.Next()
	s.next.add(now() - t0)
	return t, ok
}

func (s *tracedSource) Release(t *model.Task) {
	if r, ok := s.inner.(workload.Recycler); ok {
		r.Release(t)
	}
}

func (s *tracedSource) ClassNames() []string {
	if c, ok := s.inner.(workload.ClassedSource); ok {
		return c.ClassNames()
	}
	return nil
}

// recycled is how many Next calls the source served from its free list.
func (s *tracedSource) recycled() int64 {
	if r, ok := s.inner.(interface{ Recycled() int64 }); ok {
		return r.Recycled()
	}
	return 0
}

// simTrace is the traced pass's record of one simulation.
type simTrace struct {
	digest                             string
	population, resinfoNew, setup, run int64
	finish, render                     int64
	events                             uint64
	susLinks, tasks, recycled          int64
	policy                             *tracedPolicy
	source                             *tracedSource
}

// tracedSim runs one simulation with every layer boundary timed. It
// generates the population and task source itself, from rng.New(seed)
// split in core.New's order, so the run is the same simulation the
// timed reps ran; its digest proves it.
func tracedSim(tr *tracer, parent int, s sim, seed uint64, intraParallel int) (simTrace, error) {
	var st simTrace
	cp, err := s.engine(seed, intraParallel)
	if err != nil {
		return st, err
	}
	id := tr.begin("workload.population", parent)
	root := rng.New(seed)
	cfgR, nodeR, taskR := root.Split(), root.Split(), root.Split()
	configs := workload.GenConfigs(cfgR, &cp.Spec)
	nodes := workload.GenNodes(nodeR, &cp.Spec, cp.Partial)
	st.population = tr.end(id)

	id = tr.begin("resinfo.new", parent)
	mgr, err := resinfo.New(nodes, configs, &metrics.Counters{}, resinfo.WithIntraParallel(intraParallel))
	st.resinfoNew = tr.end(id)
	if err != nil {
		return st, err
	}
	mgr.ClosePool()

	var src workload.TaskSource
	if cp.Scenario != nil {
		src, err = workload.NewScenarioSource(taskR, cp.Scenario, &cp.Spec, configs)
	} else {
		src, err = workload.NewGenerator(taskR, &cp.Spec, configs)
	}
	if err != nil {
		return st, err
	}
	st.source = &tracedSource{inner: src}
	st.policy = &tracedPolicy{inner: sched.New(cp.PolicyOptions)}
	cp.Source, cp.Policy = st.source, st.policy

	id = tr.begin("core.new", parent)
	sm, err := core.New(cp)
	st.setup = tr.end(id)
	if err != nil {
		return st, err
	}
	runID := tr.begin("core.run", parent)
	err = sm.Start()
	if err == nil {
		sm.RunUntil(nil)
	}
	st.run = tr.end(runID)
	if err != nil {
		return st, err
	}
	st.events = sm.Processed()

	id = tr.begin("core.finish", parent)
	res, err := sm.Finish()
	st.finish = tr.end(id)
	if err != nil {
		return st, err
	}
	id = tr.begin("report.render", parent)
	text := report.TableIText(res.Report) + report.ClassTableText(res.Classes)
	err = report.WriteXML(io.Discard, res.XML(cp))
	st.render = tr.end(id)
	if err != nil {
		return st, fmt.Errorf("rendering XML: %w", err)
	}

	tr.fold(runID, "workload.next", &st.source.next)
	tr.fold(runID, "sched.decide", &st.policy.decide)
	tr.fold(runID, "sched.retry", &st.policy.retry)
	st.digest = digest(text, res.Phases)
	st.susLinks = res.Counters.SusRetries
	st.tasks = res.Counters.GeneratedTasks
	st.recycled = st.source.recycled()
	return st, nil
}

// plainSim is one untraced engine run with the core-built policy, so
// same-tick batching is on exactly as in the timed reps.
type plainSim struct {
	digest              string
	ns                  int64
	speculated, commits int64
}

func runPlainSim(s sim, seed uint64, intraParallel int) (plainSim, error) {
	cp, err := s.engine(seed, intraParallel)
	if err != nil {
		return plainSim{}, err
	}
	t0 := now()
	sm, err := core.New(cp)
	if err != nil {
		return plainSim{}, err
	}
	res, err := sm.Run()
	ns := now() - t0
	if err != nil {
		return plainSim{}, err
	}
	spec, commit := sm.BatchStats()
	return plainSim{
		digest: digest(report.TableIText(res.Report)+report.ClassTableText(res.Classes), res.Phases),
		ns:     ns, speculated: spec, commits: commit,
	}, nil
}
