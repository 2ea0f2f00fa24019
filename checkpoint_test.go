package dreamsim

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"dreamsim/internal/exec"
)

// The checkpoint property: pausing a run at any tick boundary,
// serializing it, and restoring it — in-process here; across a
// SIGKILL'd server process in cmd/dreamserve — produces a remainder
// byte-identical to the run that never paused. reflect.DeepEqual on
// Result covers every public metric AND the unexported report, XML,
// per-class and timeline-text blocks.

const checkpointScenario = `dreamsim-scenario v1
tasks 400
interval 40
class batch
  fraction 0.5
  arrival gamma 1.5
  reqtime 500 20000 uniform
end
class interactive
  fraction 0.5
  arrival poisson
  reqtime 100 2000 uniform
end
`

// checkpointCase derives one randomized parameter set covering the
// checkpointable surface: both reconfiguration methods, every
// placement policy (random-fit exercises the policy RNG stream), fault
// streams and scripts, multi-class scenarios, plain and windowed
// monitoring.
func checkpointCase(i int, rnd *rand.Rand) Params {
	p := DefaultParams()
	p.Seed = uint64(1000 + i)
	p.Nodes = 20 + rnd.Intn(40)
	p.Configs = 10 + rnd.Intn(20)
	p.Tasks = 100 + rnd.Intn(300)
	p.PartialReconfig = rnd.Intn(2) == 0
	p.Placement = []string{"best-fit", "first-fit", "worst-fit", "random-fit"}[rnd.Intn(4)]
	p.LoadBalance = rnd.Intn(2) == 0
	if rnd.Intn(3) == 0 {
		p.MaxSusRetries = int64(1 + rnd.Intn(5))
	}
	if rnd.Intn(3) == 0 {
		p.NetworkDelayRange = [2]int64{1, 20}
	}
	switch rnd.Intn(3) {
	case 1:
		p.FaultCrashRate = 0.002
		p.FaultMeanDowntime = 200
		p.FaultReconfigRate = 0.001
	case 2:
		p.FaultScript = "crash@500:1,cfail@700,recover@900:1,crash@1500:3,recover@2200:3"
	}
	if rnd.Intn(2) == 0 {
		p.SampleEvery = 1 + rnd.Intn(8)
		if rnd.Intn(2) == 0 {
			p.WindowSamples = 16
		}
	}
	if rnd.Intn(4) == 0 {
		p.ScenarioText = checkpointScenario
	}
	return p
}

// runCheckpointed executes p, pausing at pseudo-random tick
// boundaries; at each pause the run is serialized and a fresh run is
// restored from the snapshot bytes. Returns the final result and how
// many serialize/restore hops happened.
func runCheckpointed(p Params, pauseSeed int64) (Result, int, error) {
	rnd := rand.New(rand.NewSource(pauseSeed))
	run, err := StartRun(p)
	if err != nil {
		return Result{}, 0, fmt.Errorf("StartRun: %w", err)
	}
	hops := 0
	for {
		target := run.Processed() + uint64(1+rnd.Intn(400))
		done := run.RunUntil(func(now int64, processed uint64) bool {
			return processed >= target
		})
		if done {
			break
		}
		snap, err := run.Snapshot()
		if err != nil {
			return Result{}, hops, fmt.Errorf("Snapshot after %d events: %w", run.Processed(), err)
		}
		next, err := ResumeRun(p, snap)
		if err != nil {
			return Result{}, hops, fmt.Errorf("ResumeRun after %d events: %w", run.Processed(), err)
		}
		run = next
		hops++
	}
	res, err := run.Finish()
	if err != nil {
		return Result{}, hops, fmt.Errorf("Finish: %w", err)
	}
	return res, hops, nil
}

// TestCheckpointRestoreEquivalence is the property suite: 100
// randomized runs, each paused/serialized/restored at randomized
// boundaries, each compared DeepEqual against its uninterrupted twin.
func TestCheckpointRestoreEquivalence(t *testing.T) {
	cases := 100
	if testing.Short() {
		cases = 12
	}
	rnd := rand.New(rand.NewSource(7))
	totalHops := 0
	for i := 0; i < cases; i++ {
		p := checkpointCase(i, rnd)
		pauseSeed := rnd.Int63()
		t.Run(fmt.Sprintf("case%03d", i), func(t *testing.T) {
			ref, err := Run(p)
			if err != nil {
				t.Fatalf("reference run: %v", err)
			}
			got, hops, err := runCheckpointed(p, pauseSeed)
			if err != nil {
				t.Fatal(err)
			}
			totalHops += hops
			if !reflect.DeepEqual(ref, got) {
				t.Fatalf("restored run diverged from uninterrupted run (%d restore hops)\nref: %+v\ngot: %+v", hops, ref, got)
			}
		})
	}
	if !testing.Short() && totalHops == 0 {
		t.Fatal("no case ever paused — the property was not exercised")
	}
}

// TestCheckpointEquivalenceAcrossWorkers runs checkpointed cases on
// the exec worker pool at 1, 4 and 8 workers: restored runs must not
// share any state, so concurrent restore/resume cycles still match
// their sequential references.
func TestCheckpointEquivalenceAcrossWorkers(t *testing.T) {
	const n = 8
	rnd := rand.New(rand.NewSource(11))
	params := make([]Params, n)
	pauseSeeds := make([]int64, n)
	refs := make([]Result, n)
	for i := range params {
		params[i] = checkpointCase(200+i, rnd)
		pauseSeeds[i] = rnd.Int63()
		ref, err := Run(params[i])
		if err != nil {
			t.Fatalf("reference run %d: %v", i, err)
		}
		refs[i] = ref
	}
	for _, workers := range []int{1, 4, 8} {
		got := make([]Result, n)
		err := exec.DoWorkers(context.Background(), workers, n,
			func(_ context.Context, _, i int) error {
				res, _, err := runCheckpointed(params[i], pauseSeeds[i])
				got[i] = res
				return err
			})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range refs {
			if !reflect.DeepEqual(refs[i], got[i]) {
				t.Fatalf("workers=%d case %d: restored run diverged", workers, i)
			}
		}
	}
}

// TestCheckpointRejectsUncheckpointable pins the unsupported-surface
// errors: timeline-file runs are rejected up front, and snapshots are
// only legal at tick boundaries of a started, unfinished run.
func TestCheckpointRejectsUncheckpointable(t *testing.T) {
	p := DefaultParams()
	p.Tasks = 50
	p.Nodes = 20

	bad := p
	bad.SampleEvery = 4
	bad.TimelinePath = t.TempDir() + "/timeline.csv"
	if _, err := StartRun(bad); err == nil {
		t.Fatal("StartRun accepted a timeline-file run")
	}
	if _, err := ResumeRun(bad, nil); err == nil {
		t.Fatal("ResumeRun accepted a timeline-file run")
	}

	run, err := StartRun(p)
	if err != nil {
		t.Fatal(err)
	}
	if !run.RunUntil(nil) {
		t.Fatal("nil pause stopped early")
	}
	if _, err := run.Snapshot(); err == nil {
		t.Fatal("Snapshot of a finished run succeeded")
	}
	if _, err := run.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

// TestAbandonedRunsLeaveNoGoroutines: a checkpointed run owns no
// goroutines, so runs started or resumed and then dropped unfinished
// do not raise the goroutine count, with no garbage collection needed
// to reclaim anything. Only a rise can come from the calls under test:
// a goroutine another test left may exit meanwhile and lower it.
func TestAbandonedRunsLeaveNoGoroutines(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	p := DefaultParams()
	p.Tasks = 300
	run, err := StartRun(p)
	if err != nil {
		t.Fatal(err)
	}
	if run.RunUntil(func(_ int64, processed uint64) bool { return processed >= 200 }) {
		t.Fatal("run finished before its pause")
	}
	snap, err := run.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	for i := 0; i < 50; i++ {
		if _, err := StartRun(p); err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeRun(p, snap); err != nil {
			t.Fatal(err)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("50 abandoned StartRun and ResumeRun calls raised the goroutine count from %d to %d", before, after)
	}
}
