package sched

import (
	"fmt"
	"strings"
	"testing"

	"dreamsim/internal/invariant"
	"dreamsim/internal/model"
	"dreamsim/internal/rng"
)

// TestPlacementsAgainstMidDecisionCrash pins the crash contract for
// all four Allocation placement criteria. A crash pools the dead
// node's regions like an eviction, so a decision is valid only until
// the next state transition, and every caller applies it in the call
// that made it. After the node chosen by a decision crashes, the
// decision's region is zeroed in the pool, a fresh decision routes
// around the crashed node, and the crashed region serves the next
// Configure. Builds with -tags invariants also check that applying
// the stale decision trips Apply's liveness assertion.
func TestPlacementsAgainstMidDecisionCrash(t *testing.T) {
	cases := []struct {
		name string
		pl   Placement
	}{
		{"best-fit", BestFit},
		{"first-fit", FirstFit},
		{"worst-fit", WorstFit},
		{"random-fit", RandomFit},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := rig(t, []int64{4000, 2000, 3000}, []int64{500}, true)
			cfg := m.Configs()[0]
			for _, n := range m.Nodes() {
				if _, err := m.Configure(n, cfg); err != nil {
					t.Fatal(err)
				}
			}
			opts := Options{Placement: tc.pl}
			if tc.pl == RandomFit {
				opts.RNG = rng.New(5)
			}
			p := New(opts)
			tk := task(0, 0, 500)

			d := p.Decide(m, tk)
			if d.Action != ActAllocate {
				t.Fatalf("decision = %s, want allocate (all nodes hold an idle C0 region)", d)
			}
			victim, stale := d.TargetNode(), d.Entry

			// The node crashes between the decision and its application.
			if _, err := m.CrashNode(victim); err != nil {
				t.Fatal(err)
			}
			if *stale != (model.Entry{}) {
				t.Fatalf("the crashed node's region was not pooled: %+v", *stale)
			}
			if invariant.Enabled {
				func() {
					defer func() {
						if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "no longer resident") {
							t.Errorf("applying the stale decision: recovered %v, want the liveness assertion", r)
						}
					}()
					Apply(m, tk, d)
				}()
			}

			// A fresh decision must route around the crashed node.
			d2 := p.Decide(m, tk)
			if !d2.Places() {
				t.Fatalf("no alternative placement found: %s", d2)
			}
			alt := d2.TargetNode()
			if alt == victim {
				t.Fatalf("fresh decision still targets crashed node %d", alt.No)
			}
			if _, _, err := Apply(m, tk, d2); err != nil {
				t.Fatalf("applying rerouted decision: %v", err)
			}

			// The crashed region serves the next Configure.
			e, err := m.Configure(alt, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if e != stale {
				t.Fatal("the next Configure built a new region instead of reusing the crashed one")
			}
			if err := m.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestDecideWithOnlyDownNodesSuspends pins the search-exclusion
// contract end to end: with the entire population down, no phase of
// the scheduling algorithm may place, so the verdict degrades to
// suspension (or discard when suspension is off), never a crash.
func TestDecideWithOnlyDownNodesSuspends(t *testing.T) {
	m := rig(t, []int64{4000, 3000}, []int64{500}, true)
	for _, n := range m.Nodes() {
		if _, err := m.CrashNode(n); err != nil {
			t.Fatal(err)
		}
	}
	p := New(Options{})
	d := p.Decide(m, task(0, 0, 500))
	if d.Places() {
		t.Fatalf("placed on a fully-down population: %s", d)
	}
	if d.Action != ActSuspend {
		t.Fatalf("verdict = %s, want suspend", d.Action)
	}
}
