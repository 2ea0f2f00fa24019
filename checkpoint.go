package dreamsim

import (
	"fmt"

	"dreamsim/internal/core"
	"dreamsim/internal/monitor"
)

// Checkpointed runs. StartRun opens a simulation that can pause at
// tick boundaries, serialize its complete state with Snapshot, and be
// rebuilt later — in the same process or another one — with
// ResumeRun. A resumed run continues byte-identically to one that
// never paused: same Result, same metering, same monitoring series.
// The serving layer (cmd/dreamserve) leans on this to survive being
// killed mid-sweep.
//
// Not every run is checkpointable: Params.TimelinePath streams
// monitoring rows to a file as the run progresses, which puts part of
// the run's output outside the snapshot boundary; such runs are
// rejected up front.

// CheckpointedRun is an in-flight simulation with a serialization
// boundary. It is not safe for concurrent use.
type CheckpointedRun struct {
	cp  core.Params
	rec *monitor.Recorder
	sim *core.Simulator
}

// checkpointParams lowers the public parameters for a checkpointed
// run and builds its recorder, rejecting the knobs the snapshot
// boundary cannot capture.
func checkpointParams(p Params) (core.Params, *monitor.Recorder, error) {
	if p.TimelinePath != "" {
		return core.Params{}, nil, fmt.Errorf("dreamsim: a run streaming a timeline file cannot be checkpointed")
	}
	cp, err := p.coreParams()
	if err != nil {
		return core.Params{}, nil, err
	}
	rec, _, err := buildRecorder(p, &cp)
	if err != nil {
		return core.Params{}, nil, err
	}
	return cp, rec, nil
}

// StartRun opens a checkpointable simulation: arrivals and fault
// streams are primed but no events have fired. Drive it with RunUntil
// and collect the outcome with Finish.
func StartRun(p Params) (*CheckpointedRun, error) {
	cp, rec, err := checkpointParams(p)
	if err != nil {
		return nil, err
	}
	s, err := core.New(cp)
	if err != nil {
		return nil, err
	}
	if err := s.Start(); err != nil {
		return nil, err
	}
	return &CheckpointedRun{cp: cp, rec: rec, sim: s}, nil
}

// ResumeRun rebuilds a paused simulation from a snapshot taken by
// (*CheckpointedRun).Snapshot. The parameters must be the ones the
// snapshotted run was started with; mismatches are rejected by the
// snapshot's embedded fingerprint.
func ResumeRun(p Params, snap []byte) (*CheckpointedRun, error) {
	cp, rec, err := checkpointParams(p)
	if err != nil {
		return nil, err
	}
	s, err := core.RestoreSnapshot(cp, snap)
	if err != nil {
		return nil, err
	}
	return &CheckpointedRun{cp: cp, rec: rec, sim: s}, nil
}

// RunUntil fires events until the run completes (returns true) or
// pause returns true at a tick boundary (returns false) — the only
// states a run can be snapshotted or finished in. pause sees the
// simulation clock and the events processed so far; nil never pauses.
func (c *CheckpointedRun) RunUntil(pause func(now int64, processed uint64) bool) bool {
	return c.sim.RunUntil(pause)
}

// Snapshot serializes the paused run's complete state: pending
// events, counters, fabric contents, RNG stream positions, source
// cursors and monitoring series. Valid only at a tick boundary (after
// RunUntil returned false).
func (c *CheckpointedRun) Snapshot() ([]byte, error) {
	return c.sim.EncodeSnapshot()
}

// Finish validates end-of-run accounting and assembles the public
// result. Valid only after RunUntil returned true.
func (c *CheckpointedRun) Finish() (Result, error) {
	res, err := c.sim.Finish()
	if err != nil {
		return Result{}, err
	}
	return assembleResult(res, c.cp, c.rec)
}

// Processed reports how many events the run has fired so far.
func (c *CheckpointedRun) Processed() uint64 { return c.sim.Processed() }
