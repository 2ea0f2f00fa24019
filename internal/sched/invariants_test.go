//go:build invariants

package sched

import (
	"strings"
	"testing"

	"dreamsim/internal/model"
)

// TestIdleRegionOnBusyFullModeNodeAsserts plants the state the
// Allocation phase relies on never seeing: an idle region beside a
// running task on a full-mode node. Both allocation searches must trip
// the tagged assertion instead of allocating it.
func TestIdleRegionOnBusyFullModeNodeAsserts(t *testing.T) {
	m := rig(t, []int64{3000}, []int64{1000, 900}, false)
	n := m.Nodes()[0]
	t0 := task(0, 0, 1000)
	mustApply(t, m, t0, New(Options{}).Decide(m, t0))
	// Bypass the manager: a full-mode node accepts no second region.
	stray := &model.Entry{Config: m.Configs()[1], Node: n}
	n.Entries = append(n.Entries, stray)
	m.Idle(1).Add(stray)

	for _, search := range []struct {
		name   string
		decide func(p Policy) Decision
	}{
		{"Decide", func(p Policy) Decision { return p.Decide(m, task(1, 1, 900)) }},
		{"DecideOnNode", func(p Policy) Decision { return p.DecideOnNode(m, task(2, 1, 900), n) }},
	} {
		t.Run(search.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("idle region on a busy full-mode node did not trip the invariant")
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "full-mode node") {
					t.Fatalf("panic message = %v", r)
				}
			}()
			search.decide(New(Options{}))
		})
	}
}
