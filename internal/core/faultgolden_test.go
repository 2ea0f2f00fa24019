package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dreamsim/internal/fault"
	"dreamsim/internal/metrics"
	"dreamsim/internal/model"
	"dreamsim/internal/resinfo"
	"dreamsim/internal/sched"
	"dreamsim/internal/workload"
)

// walkWitness records, from the lifecycle events of one run, which of
// the suspension-queue walk's rare paths the run actually exercised.
// A queued task faulted while arrivals are still pending can only have
// been placed by the retry walk: the end-of-run drain waits for the
// arrival stream to finish, and arrivals, crash retries and dependency
// releases all dispatch tasks that were never queued. A task discarded
// with more retry examinations than MaxSusRetries allows can only have
// been discarded by the walk's retry cap.
type walkWitness struct {
	s         *Simulator
	queued    map[int]bool // task number -> currently in the suspension queue
	held      map[int]bool // task number -> parked behind its precedence gate
	lastWalk  int64        // tick of the most recent in-walk discard, -1 if none
	discards  int          // queued tasks discarded inside a walk
	refaults  int          // queued tasks re-appended by a reconfiguration fault inside a walk
	cascades  int          // dependants discarded right after an in-walk discard of their parent
	unresolve int          // DecideOnNode calls on unresolved tasks (see unresolvedPolicy)
}

func newWalkWitness() *walkWitness {
	return &walkWitness{queued: map[int]bool{}, held: map[int]bool{}, lastWalk: -1}
}

func (w *walkWitness) observe(kind string, now int64, task *model.Task) {
	switch kind {
	case "suspend":
		w.queued[task.No] = true
	case "hold":
		w.held[task.No] = true
	case "reconfig-fault":
		if w.queued[task.No] && !w.s.arrDone {
			w.refaults++
		}
		w.queued[task.No] = true
	case "discard":
		if max := w.s.params.MaxSusRetries; max > 0 && task.SusRetry > max {
			w.discards++
			w.lastWalk = now
		} else if w.held[task.No] && w.lastWalk == now {
			w.cascades++
		}
		delete(w.queued, task.No)
		delete(w.held, task.No)
	case "place":
		delete(w.queued, task.No)
		delete(w.held, task.No)
	}
}

// unresolvedPolicy wraps the paper policy and forgets every
// configuration resolution it makes, so queued tasks stay unresolved
// and the retry walk consults the policy for each of them instead of
// skipping the ones the freed node cannot fit.
type unresolvedPolicy struct {
	inner sched.Policy
	w     *walkWitness
}

func (p unresolvedPolicy) Name() string { return "unresolved/" + p.inner.Name() }

func (p unresolvedPolicy) Decide(m *resinfo.Manager, task *model.Task) sched.Decision {
	d := p.inner.Decide(m, task)
	task.Resolved, task.ResolvedClosest = nil, false
	return d
}

func (p unresolvedPolicy) DecideOnNode(m *resinfo.Manager, task *model.Task, node *model.Node) sched.Decision {
	if task.Resolved == nil {
		p.w.unresolve++
	}
	d := p.inner.DecideOnNode(m, task, node)
	task.Resolved, task.ResolvedClosest = nil, false
	return d
}

// walkGolden is the serialized form of one golden case.
type walkGolden struct {
	Report   metrics.Report
	Counters metrics.Counters
	Phases   map[string]int64
	// Snapshot is the sha256 of EncodeSnapshot at the case's pause
	// point; empty for runs that cannot be checkpointed.
	Snapshot string `json:",omitempty"`
}

// goldenCase is one full-fidelity regression fixture of the fault and
// suspension-retry paths.
type goldenCase struct {
	name string
	file string
	// params builds the run; w is the witness the run reports to.
	params func(w *walkWitness) Params
	// snapAt is the processed-event count at which the run pauses for
	// a mid-run snapshot; 0 takes none.
	snapAt uint64
	// atPause, when set, asserts what the paused run looks like before
	// the snapshot is taken.
	atPause func(t *testing.T, s *Simulator)
	// reached asserts that the run exercised the path the case exists
	// to pin.
	reached func(t *testing.T, w *walkWitness, res *Result)
}

// cfailScript arms one reconfiguration fault every step ticks in
// [from, to).
func cfailScript(from, to, step int64) []fault.Event {
	var script []fault.Event
	for at := from; at < to; at += step {
		script = append(script, fault.Event{At: at, Kind: fault.KindReconfigFault})
	}
	return script
}

var goldenCases = []goldenCase{
	{
		// A scripted crash/recover/cfail schedule on a partial run: the
		// fault, retry and drain paths.
		name: "scripted-faults",
		file: "fault_golden.json",
		params: func(*walkWitness) Params {
			script, err := fault.ParseScript(
				"crash@200:2,cfail@400,crash@900:5,recover@1500:2,cfail@2500,recover@4000:5,crash@6000:2,recover@9000:2")
			if err != nil {
				panic(err)
			}
			p := smallParams(12, 120, true)
			p.Seed = 777
			p.Debug = true
			p.Faults = fault.Plan{Script: script}
			p.Retry = fault.RetryPolicy{Budget: 2, BackoffBase: 8, BackoffCap: 64}
			return p
		},
		reached: func(t *testing.T, _ *walkWitness, res *Result) {
			if res.Counters.NodeCrashes == 0 || res.Phases["reconfig-fault"] == 0 {
				t.Fatalf("fault script did not fire: %+v", res.Phases)
			}
		},
	},
	{
		// Full reconfiguration under overload with a retry cap: the walk
		// discards queued tasks that exceeded MaxSusRetries, so it must
		// reach every queued task, and each one's SusRetry is exact.
		name: "max-sus-retries-full",
		file: "walk_maxretries_golden.json",
		params: func(*walkWitness) Params {
			p := smallParams(10, 500, false)
			p.Seed = 4242
			p.Debug = true
			p.MaxSusRetries = 3
			return p
		},
		snapAt: 505,
		reached: func(t *testing.T, w *walkWitness, res *Result) {
			if w.discards == 0 || res.Phases["discard"] == 0 {
				t.Fatalf("no queued task was discarded inside a retry walk (discards %d)", w.discards)
			}
		},
	},
	{
		// Partial reconfiguration with a dense reconfiguration-fault
		// script: placements made by the walk fail and re-append their
		// task to the queue while the walk is still running.
		name: "partial-cfail-storm",
		file: "walk_cfail_golden.json",
		params: func(*walkWitness) Params {
			p := smallParams(12, 400, true)
			p.Seed = 909
			p.Debug = true
			p.Spec.TaskReqTimeHigh = 3000
			p.Faults = fault.Plan{Script: cfailScript(50, 40000, 50)}
			return p
		},
		snapAt:  500,
		atPause: queueOutOfOrder,
		reached: func(t *testing.T, w *walkWitness, res *Result) {
			if w.refaults == 0 || res.Phases["reconfig-fault"] == 0 {
				t.Fatalf("no reconfiguration fault struck a task placed by a retry walk (refaults %d)", w.refaults)
			}
		},
	},
	{
		// A precedence chain under a retry cap: a parent discarded inside
		// the walk releases its waiting dependants from within the walk.
		name: "deps-walk-discard",
		file: "walk_deps_golden.json",
		params: func(*walkWitness) Params {
			p := smallParams(10, 400, false)
			p.Seed = 31337
			p.Debug = true
			p.MaxSusRetries = 2
			p.Deps = map[int][]int{}
			for child := 1; child < 400; child++ {
				if child%4 != 0 {
					p.Deps[child] = []int{child - 1}
				}
			}
			return p
		},
		snapAt: 400,
		reached: func(t *testing.T, w *walkWitness, res *Result) {
			if w.discards == 0 || w.cascades == 0 {
				t.Fatalf("no dependant was released by an in-walk discard (discards %d, cascades %d)",
					w.discards, w.cascades)
			}
		},
	},
	{
		// A caller-supplied policy that leaves every task unresolved: the
		// walk cannot prefilter by configuration and consults the policy
		// for each queued task. Runs with a custom Policy cannot be
		// checkpointed, so the case records no snapshot.
		name: "unresolved-policy",
		file: "walk_unresolved_golden.json",
		params: func(w *walkWitness) Params {
			p := smallParams(10, 300, true)
			p.Seed = 2024
			p.Debug = true
			p.Policy = unresolvedPolicy{inner: sched.New(sched.Options{}), w: w}
			return p
		},
		reached: func(t *testing.T, w *walkWitness, res *Result) {
			if w.unresolve == 0 || res.Counters.SusRetries == 0 {
				t.Fatalf("the retry walk never met an unresolved task (calls %d)", w.unresolve)
			}
		},
	},
	{
		// The checkpoint workload's shape: a fault-free partial run of
		// 100 nodes and 20k tasks, paused with a deep suspension queue,
		// so the snapshot serializes thousands of queued tasks.
		name: "deep-queue-snapshot",
		file: "snap_deep_golden.json",
		params: func(*walkWitness) Params {
			p := smallParams(100, 20000, true)
			p.Seed = 1
			return p
		},
		snapAt: 8000,
		atPause: func(t *testing.T, s *Simulator) {
			if n := s.sus.Len(); n < 5000 {
				t.Fatalf("paused with %d queued tasks, want at least 5000", n)
			}
		},
		reached: func(t *testing.T, _ *walkWitness, res *Result) {
			if res.Counters.NodeCrashes != 0 || res.Counters.SusQueuePeak < 5000 {
				t.Fatalf("not a fault-free deep-queue run (crashes %d, queue peak %d)",
					res.Counters.NodeCrashes, res.Counters.SusQueuePeak)
			}
		},
	},
	{
		// A two-class scenario with a crash storm and a random crash
		// stream: tasks displaced by crashes are re-dispatched and
		// queued behind later arrivals, and released tasks' structs are
		// recycled while the snapshot's registry is live.
		name: "streamed-scenario-crashes",
		file: "snap_stream_golden.json",
		params: func(*walkWitness) Params {
			scn, err := workload.ParseScenario(streamCrashScenario)
			if err != nil {
				panic(err)
			}
			p := smallParams(30, 3000, true)
			p.Seed = 5
			p.Scenario = scn
			p.Faults = fault.Plan{CrashRate: 0.0005, MeanDowntime: 300}
			return p
		},
		snapAt: 2000,
		atPause: func(t *testing.T, s *Simulator) {
			if s.recycle == nil || len(s.classAcc) < 2 || s.c.NodeCrashes == 0 {
				t.Fatalf("not a recycling multi-class run with crashes (recycling %v, %d classes, %d crashes)",
					s.recycle != nil, len(s.classAcc), s.c.NodeCrashes)
			}
			queueOutOfOrder(t, s)
		},
		reached: func(t *testing.T, _ *walkWitness, res *Result) {
			if len(res.Classes) < 2 || res.Counters.NodeCrashes == 0 || res.Counters.TasksRetried == 0 {
				t.Fatalf("no crash re-dispatch in a multi-class run (%d classes, %d crashes, %d retried)",
					len(res.Classes), res.Counters.NodeCrashes, res.Counters.TasksRetried)
			}
		},
	},
	{
		// The capability extension over 600 partial nodes under
		// overload: at least four capability sets, three of them held
		// by more nodes than one 64-slot scan block covers, and
		// configurations that require a capability skip the nodes
		// lacking it. Algorithm 1's step sum then counts compatible
		// nodes' regions and one step per incompatible node.
		name: "multi-shard-caps",
		file: "snap_shards_golden.json",
		params: func(*walkWitness) Params {
			p := smallParams(600, 12000, true)
			p.Seed = 64
			p.Spec.NextTaskMaxInterval = 8
			p.Spec.CapKinds = []string{"bram", "dsp", "serdes"}
			p.Spec.NodeCapProb = 0.7
			p.Spec.ConfigCapProb = 0.3
			return p
		},
		snapAt: 9000,
		atPause: func(t *testing.T, s *Simulator) {
			if n := shardsLongerThan(s.mgr.Nodes(), 0); n < 4 {
				t.Fatalf("population has %d distinct capability sets, want at least 4", n)
			}
			if long := shardsLongerThan(s.mgr.Nodes(), 64); long < 3 {
				t.Fatalf("%d capability sets held by more than 64 nodes, want at least 3", long)
			}
		},
		reached: func(t *testing.T, _ *walkWitness, res *Result) {
			if res.Counters.SusQueuePeak < 500 || res.Phases["reconfigure"] == 0 {
				t.Fatalf("not an overloaded run reaching Algorithm 1 (queue peak %d, phases %v)",
					res.Counters.SusQueuePeak, res.Phases)
			}
		},
	},
}

// shardsLongerThan counts the capability sets shared by more than n
// nodes.
func shardsLongerThan(nodes []*model.Node, n int) int {
	sizes := map[string]int{}
	for _, node := range nodes {
		sizes[fmt.Sprint(node.Caps)]++
	}
	long := 0
	for _, size := range sizes {
		if size > n {
			long++
		}
	}
	return long
}

// streamCrashScenario is the streamed-scenario-crashes case's traffic:
// two classes and an eight-node crash storm early in the run.
const streamCrashScenario = `dreamsim-scenario v1
tasks 3000
interval 8
class batch
  fraction 0.5
  arrival poisson
  reqtime 1000 30000 uniform
end
class interactive
  fraction 0.5
  arrival gamma 1.5
  reqtime 100 5000 uniform
end
event storm 6000 6400 8
`

// queueOutOfOrder asserts that the paused suspension queue is not in
// ascending task-number order: some task was re-appended behind later
// arrivals, so the snapshot's registry must sort the queue.
func queueOutOfOrder(t *testing.T, s *Simulator) {
	t.Helper()
	queued := s.sus.AppendTasks(nil)
	for i := 1; i < len(queued); i++ {
		if queued[i].No < queued[i-1].No {
			return
		}
	}
	t.Fatalf("paused queue of %d tasks is in task-number order", len(queued))
}

// runGoldenCase runs one case, pausing once for its mid-run snapshot.
func runGoldenCase(t *testing.T, gc goldenCase) (walkGolden, *walkWitness) {
	t.Helper()
	w := newWalkWitness()
	p := gc.params(w)
	p.OnEvent = w.observe
	s, err := New(p)
	if err != nil {
		t.Fatal(err)
	}
	w.s = s
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	var g walkGolden
	if gc.snapAt > 0 {
		if s.RunUntil(func(_ int64, processed uint64) bool { return processed >= gc.snapAt }) {
			t.Fatalf("run ended before the snapshot point %d", gc.snapAt)
		}
		if s.sus.Len() == 0 {
			t.Fatalf("snapshot point %d has an empty suspension queue", gc.snapAt)
		}
		if gc.atPause != nil {
			gc.atPause(t, s)
		}
		snap, err := s.EncodeSnapshot()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(snap)
		g.Snapshot = hex.EncodeToString(sum[:])
	}
	s.RunUntil(nil)
	res, err := s.Finish()
	if err != nil {
		t.Fatal(err)
	}
	gc.reached(t, w, res)
	g.Report, g.Counters, g.Phases = res.Report, res.Counters, res.Phases
	return g, w
}

// TestFaultGoldenReport is a set of full-fidelity regression fixtures:
// committed workload shapes whose entire report — Table I metrics, raw
// counters and phase census — plus, where the run can be checkpointed,
// the hash of one mid-run snapshot must stay byte-for-byte identical
// to testdata/<case file>. The cases pin the fault, retry and drain
// paths and the suspension-queue walk's rare paths; each also asserts
// that its run reached the path it exists for. Regenerate deliberately
// with
//
//	DREAMSIM_UPDATE_GOLDEN=1 go test -run TestFaultGoldenReport ./internal/core/
func TestFaultGoldenReport(t *testing.T) {
	for _, gc := range goldenCases {
		t.Run(gc.name, func(t *testing.T) {
			g, _ := runGoldenCase(t, gc)
			blob, err := json.MarshalIndent(g, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			blob = append(blob, '\n')

			golden := filepath.Join("testdata", gc.file)
			if os.Getenv("DREAMSIM_UPDATE_GOLDEN") == "1" {
				if err := os.WriteFile(golden, blob, 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("golden updated: %s", golden)
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden fixture (regenerate with DREAMSIM_UPDATE_GOLDEN=1): %v", err)
			}
			if !bytes.Equal(blob, want) {
				t.Fatalf("report drifted from golden fixture.\n--- got ---\n%s\n--- want ---\n%s", blob, want)
			}
		})
	}
}
