package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"

	"dreamsim"
	"dreamsim/internal/sched"
)

// metric is one reported number. Q1 and Q3 are the quartiles of the
// per-rep (or per-batch) values behind a median, absent when the value
// is not a median of repeated measurements.
type metric struct {
	Value float64  `json:"value"`
	Unit  string   `json:"unit"`
	Q1    *float64 `json:"q1,omitempty"`
	Q3    *float64 `json:"q3,omitempty"`
	N     int      `json:"n,omitempty"`
}

func medianMetric(xs []float64, unit string) metric {
	s := summarize(xs)
	return metric{Value: s.Median, Unit: unit, Q1: &s.Q1, Q3: &s.Q3, N: s.N}
}

// environment is what a number was measured on.
type environment struct {
	GoVersion     string    `json:"go_version"`
	GOMAXPROCS    int       `json:"gomaxprocs"`
	NumCPU        int       `json:"num_cpu"`
	IntraParallel int       `json:"intra_parallel"`
	SimSeeds      [4]uint64 `json:"sim_seeds"`
	Seconds       float64   `json:"seconds"`
	Reps          int       `json:"reps"`
	// HostSpeed is the median factor that scaled the reps' raw times
	// to reference-host time (see calib.go): raw = scaled / HostSpeed.
	HostSpeed float64 `json:"host_speed"`
}

// record is the suite's full result for one workload run: every
// metric with its quartiles, the environment and the output checks.
type record struct {
	Suite     string            `json:"suite"`
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Traced    bool              `json:"traced"`
	Env       environment       `json:"env"`
	Metrics   map[string]metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Failures  []string          `json:"failures,omitempty"`
}

const suiteID = "dreambench-suite/v1"

// endToEnd names the metrics an untraced run reports, in BENCHMARK.json
// order.
var endToEnd = []string{"setup_s", "tasks_per_s", "peak_rss_mb"}

func isEndToEnd(name string) bool {
	for _, e := range endToEnd {
		if e == name {
			return true
		}
	}
	return false
}

// Set-up time: the median over setupBatches of the mean time of the
// StartRun calls on the workload's largest simulation in one batch. A
// batch makes at least setupBuilds calls and lasts at least
// setupBatchNs: single builds are too short to time steadily, batch
// means are not.
const (
	setupBatches = 9
	setupBuilds  = 100
	setupBatchNs = 40e6
)

// config is one suite run.
type config struct {
	w       *workloadSpec
	seed    uint64
	seconds float64
	trace   bool
	spans   string
	// golden holds the expected digests per simulation seed and
	// simulation; nil checks self-consistency only.
	golden [][]string
}

// checker counts operations and the ones that failed: reps,
// simulations, snapshots and resumes.
type checker struct {
	attempted, failed int
	failures          []string
}

const maxFailureNotes = 20

func (c *checker) fail(format string, args ...any) {
	c.failed++
	if len(c.failures) < maxFailureNotes {
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// op counts one operation that failed when err is non-nil.
func (c *checker) op(what string, err error) bool {
	c.attempted++
	if err != nil {
		c.fail("%s: %v", what, err)
	}
	return err == nil
}

// match counts one simulation whose output digest must equal want.
func (c *checker) match(what, got, want string) {
	c.attempted++
	if got != want {
		c.fail("%s: digest %s, want %s", what, got, want)
	}
}

// suiteRun is the state of one run.
type suiteRun struct {
	cfg   config
	seeds [subSeeds]uint64
	chk   checker
	// refs are the reference digests per simulation seed for
	// self-consistency checks, filled on first use.
	refs [subSeeds][]string
}

// want returns the expected digests of simulation seed j, or nil when
// the first rep at that seed sets them.
func (s *suiteRun) want(j int) ([]string, error) {
	if s.cfg.golden != nil {
		if j >= len(s.cfg.golden) {
			return nil, fmt.Errorf("no golden digests for simulation seed %d", s.seeds[j])
		}
		return s.cfg.golden[j], nil
	}
	if s.refs[j] == nil && s.cfg.w.kind == repChain {
		// A resumed chain must reproduce the uninterrupted run.
		r, err := dreamsim.Run(s.cfg.w.sims[0].public(s.seeds[j]))
		if err != nil {
			return nil, err
		}
		s.refs[j] = digests([]dreamsim.Result{r})
	}
	return s.refs[j], nil
}

// checkRep counts a rep that ran and its simulations, each of which
// must reproduce the expected digest.
func (s *suiteRun) checkRep(j int, results []dreamsim.Result) {
	what := fmt.Sprintf("%s seed %d", s.cfg.w.name, s.seeds[j])
	want, err := s.want(j)
	if err != nil {
		s.chk.fail("%s reference: %v", what, err)
		return
	}
	got := digests(results)
	if want == nil {
		s.refs[j] = got
		want = got
	}
	if len(got) != len(want) {
		s.chk.fail("%s: %d simulations, want %d", what, len(got), len(want))
		return
	}
	for i := range got {
		s.chk.match(fmt.Sprintf("%s sim %d", what, i), got[i], want[i])
	}
}

// measureSetup times StartRun builds of the largest simulation and
// returns the mean reference-host seconds per build of every batch.
func (s *suiteRun) measureSetup() ([]float64, error) {
	p := s.cfg.w.sims[s.cfg.w.largest].public(s.seeds[0])
	var means []float64
	for b := 0; b < setupBatches; b++ {
		// StartRun leaves an intra-run worker pool that only Finish or
		// a GC finalizer closes; collect the last batch's first.
		runtime.GC()
		speed := hostSpeed()
		t0 := now()
		builds := 0
		for ; builds < setupBuilds || now()-t0 < setupBatchNs; builds++ {
			if _, err := dreamsim.StartRun(p); err != nil {
				return nil, err
			}
		}
		means = append(means, float64(now()-t0)*speed/float64(builds)/1e9)
		s.chk.attempted += builds
	}
	return means, nil
}

// runSuite runs one workload: one untimed warm-up rep, set-up timing,
// a closed loop of timed reps for cfg.seconds (one client: each rep
// starts when the previous one ends) and, when tracing, the checkpoint
// probe and the plain and traced passes.
func runSuite(cfg config) (record, error) {
	w := cfg.w
	s := &suiteRun{cfg: cfg, seeds: simSeeds(cfg.seed)}
	ip := dreamsim.EffectiveIntraParallel(0)
	rec := record{
		Suite: suiteID, Workload: w.name, Seed: cfg.seed, Traced: cfg.trace,
		Env: environment{
			GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			IntraParallel: ip, SimSeeds: s.seeds, Seconds: cfg.seconds,
		},
		Metrics: map[string]metric{},
	}

	if w.kind == repChain {
		// Make the uninterrupted runs the chains must reproduce now,
		// outside the timed loop's window. An error resurfaces when
		// checkRep asks again.
		for j := range s.seeds {
			_, _ = s.want(j)
		}
	}
	warm, taken, err := w.rep(s.seeds[0])
	s.chk.attempted += 2 * taken
	if !s.chk.op(w.name+" warm-up", err) {
		return rec, fmt.Errorf("warm-up rep: %w", err)
	}
	s.checkRep(0, warm)
	warmDigests := digests(warm)

	// Set-up is timed after the warm-up, on a heap that has grown to
	// the workload's size, so batches do not pay for its growth.
	setup, err := s.measureSetup()
	if !s.chk.op(w.name+" set-up", err) {
		return rec, fmt.Errorf("set-up: %w", err)
	}
	rec.Metrics["setup_s"] = medianMetric(setup, "s")

	// The peak RSS is the timed reps': the set-up builds, the warm-up
	// and the reference runs leave garbage that is not the workload's.
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return rec, err
	}
	var repNs, tasksPerS, speeds []float64
	deadline := now() + int64(cfg.seconds*1e9)
	// Whole rounds over the simulation seeds, so each weighs the same.
	for i := 0; i%subSeeds != 0 || i == 0 || now() < deadline; i++ {
		j := i % subSeeds
		runtime.GC()
		speed := hostSpeed()
		t0 := now()
		results, taken, err := w.rep(s.seeds[j])
		dt := float64(now()-t0) * speed
		s.chk.attempted += 2 * taken
		if !s.chk.op(fmt.Sprintf("%s seed %d", w.name, s.seeds[j]), err) {
			continue
		}
		s.checkRep(j, results)
		repNs = append(repNs, dt)
		speeds = append(speeds, speed)
		tasksPerS = append(tasksPerS, float64(taskCount(results))/(dt/1e9))
	}
	rss, err := peakRSSMB()
	if err != nil {
		return rec, err
	}
	rec.Env.Reps = len(repNs)
	if len(repNs) == 0 {
		return rec, fmt.Errorf("no rep succeeded: %v", s.chk.failures)
	}
	rec.Env.HostSpeed = summarize(speeds).Median
	rec.Metrics["tasks_per_s"] = medianMetric(tasksPerS, "tasks/s")
	rec.Metrics["peak_rss_mb"] = metric{Value: rss, Unit: "MB", N: 1}

	if cfg.trace {
		// The checkpoint probe: a checkpointed run of the largest
		// simulation, so every workload reports snapshot cost on its own
		// state shape and proves its resumed run matches the
		// uninterrupted one.
		var ck ckptSamples
		every := uint64(2*warm[w.largest].TotalTasks/probePauses + 1)
		speed := hostSpeed()
		r, taken, err := chain(w.sims[w.largest].public(s.seeds[0]), every, &ck)
		speed = (speed + hostSpeed()) / 2
		s.chk.attempted += 2 * taken
		if s.chk.op(w.name+" checkpoint probe", err) {
			s.chk.match(w.name+" resumed vs uninterrupted", digest(r.TableI(), r.Phases), warmDigests[w.largest])
		}
		for name, m := range checkpointMetrics(&ck, speed) {
			rec.Metrics[name] = m
		}

		tr := &tracer{}
		ps := s.passes(tr, warmDigests, ip)
		if len(ps.plains) == len(w.sims) && len(ps.traces) == len(w.sims) {
			sweepNs := 0.0
			if w.kind == repMatrix {
				sweepNs = summarize(repNs).Median
			}
			// Let finalizers close abandoned worker pools before counting.
			runtime.GC()
			runtime.GC()
			for name, m := range layerMetrics(ps, sweepNs, runtime.NumGoroutine()) {
				rec.Metrics[name] = m
			}
		}
		ckptSpans(tr, &ck)
		if cfg.spans != "" {
			if err := tr.write(cfg.spans); err != nil {
				return rec, fmt.Errorf("writing spans: %w", err)
			}
		}
	}
	rec.Attempted, rec.Failed, rec.Failures = s.chk.attempted, s.chk.failed, s.chk.failures
	return rec, nil
}

// passResult holds the plain and traced passes over a workload's
// simulations with the median host-speed factor of each pass.
type passResult struct {
	plains                  []plainSim
	traces                  []simTrace
	plainSpeed, tracedSpeed float64
}

// passes runs every simulation of the workload at the first simulation
// seed twice more: plain through the engine (batch counts, untraced
// timing) and traced. Both must reproduce the warm-up rep's digests.
func (s *suiteRun) passes(tr *tracer, want []string, ip int) passResult {
	w := s.cfg.w
	var ps passResult
	var speeds []float64
	root := tr.begin("plain", 0)
	for i, sm := range w.sims {
		runtime.GC()
		speeds = append(speeds, hostSpeed())
		p, err := runPlainSim(sm, s.seeds[0], ip)
		if s.chk.op(fmt.Sprintf("%s plain sim %d", w.name, i), err) {
			s.chk.match(fmt.Sprintf("%s plain sim %d", w.name, i), p.digest, want[i])
			ps.plains = append(ps.plains, p)
		}
	}
	tr.end(root)
	ps.plainSpeed = summarize(speeds).Median
	speeds = speeds[:0]
	root = tr.begin("traced", 0)
	for i, sm := range w.sims {
		runtime.GC()
		speeds = append(speeds, hostSpeed())
		id := tr.begin("sim", root)
		st, err := tracedSim(tr, id, sm, s.seeds[0], ip)
		tr.end(id)
		if s.chk.op(fmt.Sprintf("%s traced sim %d", w.name, i), err) {
			s.chk.match(fmt.Sprintf("%s traced sim %d", w.name, i), st.digest, want[i])
			ps.traces = append(ps.traces, st)
		}
	}
	tr.end(root)
	ps.tracedSpeed = summarize(speeds).Median
	return ps
}

// ckptSpans records every probe snapshot and restore as a root span.
func ckptSpans(tr *tracer, ck *ckptSamples) {
	for i, at := range ck.at {
		mid := at + int64(ck.pauseNs[i])
		tr.record("snapshot.encode", 0, at, mid)
		tr.record("snapshot.restore", 0, mid, mid+int64(ck.resumeNs[i]))
	}
}

// checkpointMetrics turns the probe's samples, scaled by the host-speed
// factor speed, into latency percentiles and codec throughput; all zero
// when the probe took no checkpoint.
func checkpointMetrics(ck *ckptSamples, speed float64) map[string]metric {
	pct := func(xs []float64, q float64) float64 {
		if len(xs) == 0 {
			return 0
		}
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		return s[rankOf(q, uint64(len(s)))-1]
	}
	sum := func(xs []float64) float64 {
		t := 0.0
		for _, x := range xs {
			t += x
		}
		return t
	}
	scaled := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * speed
		}
		return out
	}
	n := len(ck.pauseNs)
	pause, resume, bytes := scaled(ck.pauseNs), scaled(ck.resumeNs), sum(ck.bytes)
	return map[string]metric{
		"snapshot.pause_ms_p50":     {Value: pct(pause, 0.5) / 1e6, Unit: "ms", N: n},
		"snapshot.resume_ms_p50":    {Value: pct(resume, 0.5) / 1e6, Unit: "ms", N: n},
		"snapshot.pause_ms_p99":     {Value: pct(pause, 0.99) / 1e6, Unit: "ms", N: n},
		"snapshot.resume_ms_p99":    {Value: pct(resume, 0.99) / 1e6, Unit: "ms", N: n},
		"snapshot.bytes_p50":        {Value: pct(ck.bytes, 0.5), Unit: "bytes", N: n},
		"snapshot.encode_mb_per_s":  {Value: ratio(bytes/1e6, sum(pause)/1e9), Unit: "MB/s", N: n},
		"snapshot.restore_mb_per_s": {Value: ratio(bytes/1e6, sum(resume)/1e9), Unit: "MB/s", N: n},
	}
}

// layerMetrics derives the per-layer numbers from the traced and plain
// passes, with host times scaled to reference-host time. core.self is
// the traced event-loop span minus the time the wrapped layers (source,
// policy) were busy inside it. sweepMedianNs is the median scaled rep
// time of a repMatrix workload, 0 for the others.
func layerMetrics(ps passResult, sweepMedianNs float64, goroutines int) map[string]metric {
	traces, plains := ps.traces, ps.plains
	var next, decide, retry calls
	var outcome [numActions]calls
	var runNs, tracedNs, population, resinfoNew, finish, render int64
	var events uint64
	var susLinks, retryPlaced, tasks, recycled int64
	for i := range traces {
		t := &traces[i]
		next.merge(&t.source.next)
		decide.merge(&t.policy.decide)
		retry.merge(&t.policy.retry)
		for o := range outcome {
			outcome[o].merge(&t.policy.outcome[o])
		}
		runNs += t.run
		tracedNs += t.setup + t.run + t.finish
		population += t.population
		resinfoNew += t.resinfoNew
		finish += t.finish
		render += t.render
		events += t.events
		susLinks += t.susLinks
		retryPlaced += t.policy.retryPlaced
		tasks += t.tasks
		recycled += t.recycled
	}
	var plainNs, speculated, committed int64
	for _, p := range plains {
		plainNs += p.ns
		speculated += p.speculated
		committed += p.commits
	}
	// ft and fp scale the traced and the plain pass's host times.
	ft, fp := ps.tracedSpeed, ps.plainSpeed
	self := float64(runNs-next.busy-decide.busy-retry.busy) * ft
	m := map[string]metric{
		"core.self_s":                  {Value: self / 1e9, Unit: "s"},
		"core.events":                  {Value: float64(events), Unit: "count"},
		"core.self_ns_per_event":       {Value: ratio(self, float64(events)), Unit: "ns"},
		"reslists.sus_links":           {Value: float64(susLinks), Unit: "count"},
		"reslists.sus_links_per_place": {Value: ratio(float64(susLinks), float64(retryPlaced)), Unit: "ratio"},
		"sched.decide.calls":           {Value: float64(decide.n), Unit: "count"},
		"sched.decide.busy_s":          {Value: float64(decide.busy) * ft / 1e9, Unit: "s"},
		"sched.decide.p50_us":          {Value: float64(decide.hist.quantile(0.5)) * ft / 1e3, Unit: "us"},
		"sched.decide.p99_us":          {Value: float64(decide.hist.quantile(0.99)) * ft / 1e3, Unit: "us"},
		"sched.retry.calls":            {Value: float64(retry.n), Unit: "count"},
		"sched.retry.busy_share":       {Value: ratio(float64(retry.busy), float64(runNs)), Unit: "ratio"},
		"sched.retry.place_ratio":      {Value: ratio(float64(retryPlaced), float64(retry.n)), Unit: "ratio"},
		"workload.next.calls":          {Value: float64(next.n), Unit: "count"},
		"workload.next.busy_s":         {Value: float64(next.busy) * ft / 1e9, Unit: "s"},
		"workload.next.ns_per_task":    {Value: ratio(float64(next.busy)*ft, float64(tasks)), Unit: "ns"},
		"workload.recycled_frac":       {Value: ratio(float64(recycled), float64(tasks)), Unit: "ratio"},
		"workload.population_ms":       {Value: float64(population) * ft / 1e6, Unit: "ms"},
		"resinfo.new_ms":               {Value: float64(resinfoNew) * ft / 1e6, Unit: "ms"},
		"report.finish_ms":             {Value: float64(finish) * ft / 1e6, Unit: "ms"},
		"report.render_ms":             {Value: float64(render) * ft / 1e6, Unit: "ms"},
		"core.batch.speculated":        {Value: float64(speculated), Unit: "count"},
		"core.batch.committed":         {Value: float64(committed), Unit: "count"},
		"core.batch.commit_ratio":      {Value: ratio(float64(committed), float64(speculated)), Unit: "ratio"},
		"core.batch.arrival_share":     {Value: ratio(float64(speculated), float64(tasks)), Unit: "ratio"},
		"par.goroutines_end":           {Value: float64(goroutines), Unit: "count"},
		"exec.util":                    {Value: ratio(float64(plainNs)*fp, sweepWorkers*sweepMedianNs), Unit: "ratio"},
		"trace.overhead_frac":          {Value: ratio(float64(tracedNs)*ft, float64(plainNs)*fp) - 1, Unit: "ratio"},
	}
	for o := range outcome {
		name := sched.Action(o).String()
		m["sched.decide."+name+".calls"] = metric{Value: float64(outcome[o].n), Unit: "count"}
		m["sched.decide."+name+".busy_share"] = metric{Value: ratio(float64(outcome[o].busy), float64(decide.busy)), Unit: "ratio"}
	}
	return m
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
