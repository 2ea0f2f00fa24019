// Package reslists implements the dynamic data structures of the
// DReAMSim resource information system (paper §IV-B, Fig. 3): the
// per-configuration idle lists of node regions (the paper's
// Idle_start with Inext pointers) and the suspension queue (SusList,
// §IV-C).
//
// The paper also keeps a busy list per configuration. No decision here
// reads one, so none is kept (see package resinfo).
//
// The paper threads whole nodes through the lists; under partial
// reconfiguration one node can hold idle regions of several
// configurations at once, so the lists here thread config-task
// *entries* (model.Entry) instead — one entry is one membership. All
// list traversals report how many links they explored so callers can
// account scheduler search length and housekeeping workload exactly as
// the paper's counters do.
package reslists

import (
	"fmt"

	"dreamsim/internal/model"
)

// List is a doubly linked, nil-terminated list of the idle entries of
// one configuration. Insertion and removal are O(1); every traversal
// hop counts as one search step.
type List struct {
	head *model.Entry
	size int
}

// Len returns the number of entries in the list.
func (l *List) Len() int { return l.size }

// Add pushes e at the head of the list (the paper's
// AddNodeToIdleList). It panics on double insertion — that is always a
// scheduler bug.
func (l *List) Add(e *model.Entry) {
	if e.InIdle {
		panic(fmt.Sprintf("reslists: idle list double insert of %v", e))
	}
	e.INext = l.head
	e.IPrev = nil
	if l.head != nil {
		l.head.IPrev = e
	}
	e.InIdle = true
	l.head = e
	l.size++
}

// Remove unlinks e (the paper's RemoveNodeFromIdleList). It reports
// whether e was a member.
func (l *List) Remove(e *model.Entry) bool {
	if !e.InIdle {
		return false
	}
	if e.IPrev != nil {
		e.IPrev.INext = e.INext
	} else {
		l.head = e.INext
	}
	if e.INext != nil {
		e.INext.IPrev = e.IPrev
	}
	e.INext, e.IPrev = nil, nil
	e.InIdle = false
	l.size--
	return true
}

// Each walks the list (the paper's SearchIdleList), calling visit for
// every entry until visit returns false. It returns the number of
// links explored — the search steps charged to the caller.
func (l *List) Each(visit func(*model.Entry) bool) (steps uint64) {
	for e := l.head; e != nil; e = e.INext {
		steps++
		if !visit(e) {
			return steps
		}
	}
	return steps
}

// BestFit walks the whole list and returns the first entry, in list
// order, whose node has the least AvailableArea (the paper's best-fit
// criterion), with the search steps spent: one per entry, the whole
// list. A nil entry means the list was empty.
func (l *List) BestFit() (best *model.Entry, steps uint64) {
	if l.head == nil {
		return nil, 0
	}
	best = l.head
	least := best.Node.AvailableArea
	for e := best.INext; e != nil; e = e.INext {
		if a := e.Node.AvailableArea; a < least {
			best, least = e, a
		}
	}
	return best, uint64(l.size)
}

// WorstFit is BestFit for the greatest AvailableArea: the first entry
// in list order whose node has the most free fabric.
func (l *List) WorstFit() (best *model.Entry, steps uint64) {
	if l.head == nil {
		return nil, 0
	}
	best = l.head
	most := best.Node.AvailableArea
	for e := best.INext; e != nil; e = e.INext {
		if a := e.Node.AvailableArea; a > most {
			best, most = e, a
		}
	}
	return best, uint64(l.size)
}

// BestFitBalanced is BestFit with the load-balancing tie-break: among
// the entries whose nodes share the least AvailableArea, the first in
// list order whose node runs the fewest tasks.
func (l *List) BestFitBalanced() (best *model.Entry, steps uint64) {
	if l.head == nil {
		return nil, 0
	}
	best = l.head
	least, load := best.Node.AvailableArea, best.Node.RunningTasks()
	for e := best.INext; e != nil; e = e.INext {
		a := e.Node.AvailableArea
		if a > least {
			continue
		}
		if r := e.Node.RunningTasks(); a < least || r < load {
			best, least, load = e, a, r
		}
	}
	return best, uint64(l.size)
}

// CheckInvariants validates the internal linkage: size matches the
// chain length, back-pointers mirror forward pointers and every
// member's hook flag is set. Used by tests.
func (l *List) CheckInvariants() error {
	count := 0
	var prev *model.Entry
	for e := l.head; e != nil; e = e.INext {
		count++
		if count > l.size {
			return fmt.Errorf("reslists: idle list longer than size %d (cycle?)", l.size)
		}
		if !e.InIdle {
			return fmt.Errorf("reslists: idle list member %v lacks membership flag", e)
		}
		if e.IPrev != prev {
			return fmt.Errorf("reslists: idle list back-pointer mismatch at %v", e)
		}
		prev = e
	}
	if count != l.size {
		return fmt.Errorf("reslists: idle list size %d but chain length %d", l.size, count)
	}
	return nil
}
