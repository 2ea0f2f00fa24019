package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"

	"dreamsim"
	"dreamsim/internal/core"
	"dreamsim/internal/workload"
)

//go:embed testdata/burst-mix.scn
var burstMixScenario string

// subSeeds is how many simulation seeds one benchmark seed covers:
// --seed N simulates seeds subSeeds*(N-1)+1 … subSeeds*N, one per rep
// in turn, so a run's median averages over several inputs instead of
// riding on one seed's luck.
const subSeeds = 4

func simSeeds(seed uint64) [subSeeds]uint64 {
	var out [subSeeds]uint64
	for j := range out {
		out[j] = subSeeds*(seed-1) + uint64(j) + 1
	}
	return out
}

// sim is one simulation of a workload. Every knob not named here keeps
// the paper's Table II default (dreamsim.DefaultParams).
type sim struct {
	nodes, tasks int
	partial      bool
	stream       bool
	// scenario, when set, is dreamsim-scenario text supplying the
	// arrival interval, and the task count when tasks is 0.
	scenario string
}

// public lowers the simulation onto the public parameters the timed
// reps run with.
func (s sim) public(seed uint64) dreamsim.Params {
	p := dreamsim.DefaultParams()
	p.Seed = seed
	p.Nodes = s.nodes
	p.Tasks = s.tasks
	p.PartialReconfig = s.partial
	p.Stream = s.stream
	if s.scenario != "" {
		// DefaultParams' Tasks and NextTaskMaxInterval would otherwise
		// win over the scenario's own tasks and interval lines.
		p.NextTaskMaxInterval = 0
		p.ScenarioText = s.scenario
	}
	return p
}

// engine lowers the simulation onto the engine's parameters for the
// traced and plain passes, mirroring what the public layer does for
// the knobs the suite uses. A divergence shows up as a digest mismatch
// against the timed reps.
func (s sim) engine(seed uint64, intraParallel int) (core.Params, error) {
	cp := core.Params{
		Spec:          workload.TableII(s.nodes, s.tasks),
		Partial:       s.partial,
		Seed:          seed,
		Stream:        s.stream,
		IntraParallel: intraParallel,
	}
	if s.scenario != "" {
		scn, err := workload.ParseScenario(s.scenario)
		if err != nil {
			return core.Params{}, err
		}
		if err := scn.Validate(); err != nil {
			return core.Params{}, err
		}
		cp.Spec.NextTaskMaxInterval = 0
		scn.ApplyDefaults(&cp.Spec)
		cp.Scenario = scn
	}
	return cp, cp.Validate()
}

// repKind selects how one rep drives a workload's simulations.
type repKind int

const (
	// repMatrix runs the sims as one dreamsim.RunMatrix sweep fanned
	// over sweepWorkers workers.
	repMatrix repKind = iota
	// repRun runs the workload's single sim with dreamsim.Run.
	repRun
	// repChain drives the single sim through StartRun, snapshotting
	// every chainEvery events and continuing on the ResumeRun copy.
	repChain
)

// sweepWorkers is the paper-sweep's Parallelism: the two vCPUs of the
// reference host, and the smallest fan-out that exercises internal/exec.
const sweepWorkers = 2

// probePauses is how many checkpoints the traced run's probe takes
// over the workload's largest simulation.
const probePauses = 50

// workloadSpec is one named benchmark input; BENCHMARK.json and
// README.md give the reason for each.
type workloadSpec struct {
	name string
	kind repKind
	// nodes and tasks are the RunMatrix grid of a repMatrix workload.
	nodes, tasks []int
	// sims are the simulations of one rep, in the order RunMatrix
	// returns them (node count, then task count, full before partial).
	sims []sim
	// largest is the index in sims of the simulation set-up time and
	// the checkpoint probe are measured on.
	largest int
	// chainEvery is the repChain snapshot cadence in events.
	chainEvery uint64
}

// workloads returns the suite. tiny shrinks every simulation so the
// tests can drive all four workloads end to end in seconds.
func workloads(tiny bool) []*workloadSpec {
	size := func(full, small int) int {
		if tiny {
			return small
		}
		return full
	}
	sweepNodes := []int{size(100, 12), size(200, 24)}
	sweepTasks := []int{size(2000, 150), size(5000, 300), size(10000, 600)}
	var sweep []sim
	for _, n := range sweepNodes {
		for _, t := range sweepTasks {
			sweep = append(sweep, sim{nodes: n, tasks: t}, sim{nodes: n, tasks: t, partial: true})
		}
	}
	burst := sim{nodes: size(1000, 40), partial: true, stream: true, scenario: burstMixScenario}
	if tiny {
		// An explicit task count wins over the scenario's tasks line.
		burst.tasks = 1500
	}
	return []*workloadSpec{
		{
			name: "paper-sweep",
			kind: repMatrix, nodes: sweepNodes, tasks: sweepTasks, sims: sweep,
			largest: len(sweep) - 1,
		},
		{
			name: "stream-5k",
			kind: repRun,
			sims: []sim{{nodes: size(5000, 60), tasks: size(1000000, 3000), partial: true, stream: true}},
		},
		{
			name: "burst-mix",
			kind: repRun,
			sims: []sim{burst},
		},
		{
			name: "ckpt-resume",
			kind: repChain, chainEvery: uint64(size(1000, 100)),
			sims: []sim{{nodes: 100, tasks: size(20000, 1000), partial: true}},
		},
	}
}

func findWorkload(ws []*workloadSpec, name string) *workloadSpec {
	for _, w := range ws {
		if w.name == name {
			return w
		}
	}
	return nil
}

// taskCount is the number of tasks one rep simulated.
func taskCount(results []dreamsim.Result) int64 {
	var n int64
	for _, r := range results {
		n += r.TotalTasks
	}
	return n
}

// ckptSamples collects checkpoint start times, latencies and sizes.
type ckptSamples struct {
	at                []int64
	pauseNs, resumeNs []float64
	bytes             []float64
}

// rep runs the workload once at one simulation seed and returns each
// simulation's result in sims order and how many checkpoints it took.
func (w *workloadSpec) rep(seed uint64) ([]dreamsim.Result, int, error) {
	switch w.kind {
	case repMatrix:
		base := w.sims[0].public(seed)
		base.Parallelism = sweepWorkers
		m, err := dreamsim.RunMatrix(base, w.nodes, w.tasks, nil)
		if err != nil {
			return nil, 0, err
		}
		out := make([]dreamsim.Result, 0, len(w.sims))
		for _, c := range m.Cells {
			out = append(out, c.Full, c.Partial)
		}
		return out, 0, nil
	case repRun:
		r, err := dreamsim.Run(w.sims[0].public(seed))
		return []dreamsim.Result{r}, 0, err
	default:
		r, taken, err := chain(w.sims[0].public(seed), w.chainEvery, nil)
		return []dreamsim.Result{r}, taken, err
	}
}

// chain runs p through StartRun, pausing every `every` events to take
// a snapshot and continue on a run restored from it, as dreamserve does
// after a kill, and returns how many checkpoints it took. ck, when set,
// receives every checkpoint's timings and size. Abandoned runs' worker
// pools are left to the GC.
func chain(p dreamsim.Params, every uint64, ck *ckptSamples) (dreamsim.Result, int, error) {
	run, err := dreamsim.StartRun(p)
	if err != nil {
		return dreamsim.Result{}, 0, err
	}
	for taken := 0; ; taken++ {
		target := run.Processed() + every
		if run.RunUntil(func(_ int64, processed uint64) bool { return processed >= target }) {
			r, err := run.Finish()
			return r, taken, err
		}
		t0 := now()
		snap, err := run.Snapshot()
		t1 := now()
		if err != nil {
			return dreamsim.Result{}, taken, fmt.Errorf("snapshot at event %d: %w", run.Processed(), err)
		}
		run, err = dreamsim.ResumeRun(p, snap)
		t2 := now()
		if err != nil {
			return dreamsim.Result{}, taken, fmt.Errorf("resume at %d bytes: %w", len(snap), err)
		}
		if ck != nil {
			ck.at = append(ck.at, t0)
			ck.pauseNs = append(ck.pauseNs, float64(t1-t0))
			ck.resumeNs = append(ck.resumeNs, float64(t2-t1))
			ck.bytes = append(ck.bytes, float64(len(snap)))
		}
	}
}

// digest fingerprints one simulation's output: its Table I text
// (including per-class rows) and its phase census.
func digest(tableI string, phases map[string]int64) string {
	keys := make([]string, 0, len(phases))
	for k := range phases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(tableI)
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d\n", k, phases[k])
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:16])
}

func digests(results []dreamsim.Result) []string {
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = digest(r.TableI(), r.Phases)
	}
	return out
}
