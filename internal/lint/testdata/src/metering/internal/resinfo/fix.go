// Package resinfo is a metering fixture: its import path ends in
// internal/resinfo, so resource-list traversals here must charge the
// search/housekeeping counters.
package resinfo

import (
	"dreamsim/internal/model"
	real "dreamsim/internal/resinfo"
	"dreamsim/internal/reslists"
)

// BadWalk scans the node list without charging a single step.
func BadWalk(nodes []*model.Node, area int64) *model.Node {
	for _, n := range nodes { // want `BadWalk walks a resource list but never charges`
		if n.TotalArea >= area {
			return n
		}
	}
	return nil
}

// GoodWalk meters the same scan.
func GoodWalk(m *real.Manager, nodes []*model.Node, area int64) *model.Node {
	var steps uint64
	var hit *model.Node
	for _, n := range nodes {
		steps++
		if n.TotalArea >= area {
			hit = n
			break
		}
	}
	m.ChargeSearch(steps)
	return hit
}

// BadDiscard throws the traversal cost away twice over.
func BadDiscard(m *real.Manager, l *reslists.List) *model.Entry {
	l.Each(func(e *model.Entry) bool { return true }) // want `steps result of List.Each discarded`
	best, _ := l.BestFit()                            // want `steps result of List.BestFit discarded`
	m.ChargeSearch(1)
	return best
}

// BadDiscardScans drops the steps of each other scan, and of a bare
// call.
func BadDiscardScans(m *real.Manager, l *reslists.List) *model.Entry {
	l.WorstFit()                   // want `steps result of List.WorstFit discarded`
	best, _ := l.BestFitBalanced() // want `steps result of List.BestFitBalanced discarded`
	m.ChargeSearch(1)
	return best
}

// GoodCharge forwards the steps to the counters.
func GoodCharge(m *real.Manager, l *reslists.List) *model.Entry {
	steps := l.Each(func(e *model.Entry) bool { return true })
	m.ChargeSearch(steps)
	best, steps := l.BestFit()
	m.ChargeSearch(steps)
	return best
}

// JustifiedWalk documents a deliberate exception.
//
//lint:metering fixture: construction-time walk, not simulated work
func JustifiedWalk(configs []*model.Config) int {
	n := 0
	for range configs {
		n++
	}
	return n
}
