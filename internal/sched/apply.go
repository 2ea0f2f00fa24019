package sched

import (
	"fmt"

	"dreamsim/internal/invariant"
	"dreamsim/internal/model"
	"dreamsim/internal/resinfo"
)

// Apply executes a placing decision against the resource state: it
// performs the evictions and bitstream sends the decision calls for,
// starts the task on the resulting region, and returns that region
// together with the configuration delay incurred (0 for pure
// allocation; the config's ConfigTime otherwise — the optional
// bitstream-transfer term is added by the caller's network model).
//
// Suspend/discard decisions carry no state change and are rejected.
func Apply(m *resinfo.Manager, task *model.Task, d Decision) (*model.Entry, int64, error) {
	switch d.Action {
	case ActAllocate:
		if d.Entry == nil {
			return nil, 0, fmt.Errorf("sched: allocate decision without entry")
		}
		if invariant.Enabled {
			// The manager pools and zeroes the Entry of every region it
			// removes, so a decision holds only until the next state
			// transition: every caller applies it in the call that
			// made it. (A reconfigure's stale victims fail EvictIdle's
			// ownership check instead.)
			invariant.Assertf(d.Entry.Node != nil && d.Entry.Config == d.Config,
				"sched: allocate decision names a region that is no longer resident")
		}
		if err := m.StartTask(d.Entry, task); err != nil {
			return nil, 0, err
		}
		return d.Entry, 0, nil

	case ActConfigure, ActPartialConfigure:
		if d.Node == nil || d.Config == nil {
			return nil, 0, fmt.Errorf("sched: configure decision missing node/config")
		}
		e, err := m.Configure(d.Node, d.Config)
		if err != nil {
			return nil, 0, err
		}
		if err := m.StartTask(e, task); err != nil {
			return nil, 0, err
		}
		return e, d.Config.ConfigTime, nil

	case ActReconfigure:
		if d.Node == nil || d.Config == nil || len(d.Evict) == 0 {
			return nil, 0, fmt.Errorf("sched: reconfigure decision missing node/config/evictions")
		}
		if err := m.EvictIdle(d.Node, d.Evict); err != nil {
			return nil, 0, err
		}
		e, err := m.Configure(d.Node, d.Config)
		if err != nil {
			return nil, 0, err
		}
		if err := m.StartTask(e, task); err != nil {
			return nil, 0, err
		}
		return e, d.Config.ConfigTime, nil

	default:
		return nil, 0, fmt.Errorf("sched: Apply called with non-placing decision %s", d.Action)
	}
}
