package resinfo

import (
	"fmt"

	"dreamsim/internal/model"
	"dreamsim/internal/reslists"
	"dreamsim/internal/snapshot"
)

// Checkpoint support. The manager's dynamic state is the fabric
// picture: which configurations sit on which nodes, which tasks run
// on which regions, which nodes are down — plus the ORDER of the
// per-configuration idle lists, because the BestFit, WorstFit and
// BestFitBalanced scans break ties by first-encountered and Each walks
// charge metering in list order, so list order is observable in
// scheduling decisions and counters.
//
// Everything else is derived and rebuilt rather than stored: node
// AvailableArea follows Eq. 4 from the resident configurations, the
// SoA scan block (per-slot arrays, block bounds and the node census)
// re-syncs from node state through reindex, and the entry/evict pools
// are allocation artifacts that restore empty.
//
// Version 1 payloads also carried each configuration's busy list
// after its idle list; RestoreState reads and discards it.

// EncodeState appends the manager's dynamic state: per-node fabric
// contents in node order, then per-configuration idle-list orders in
// configuration order (never map order — encoding must be
// deterministic). Each list is written head first, each entry as
// (node number, slot in that node's Entries).
func (m *Manager) EncodeState(w *snapshot.Writer) {
	w.Int(len(m.nodes))
	for _, n := range m.nodes {
		w.Bool(n.Down)
		w.I64(n.ReconfigCount)
		w.Int(len(n.Entries))
		for _, e := range n.Entries {
			w.Int(e.Config.No)
			if e.Task != nil {
				w.Int(e.Task.No)
			} else {
				w.Int(-1)
			}
		}
	}
	for _, l := range m.idle {
		w.Int(l.Len())
		l.Each(func(e *model.Entry) bool {
			w.Int(e.Node.No)
			w.Int(entrySlot(e))
			return true
		})
	}
}

// entrySlot locates e within its node's entry slice.
func entrySlot(e *model.Entry) int {
	for i, cur := range e.Node.Entries {
		if cur == e {
			return i
		}
	}
	panic(fmt.Sprintf("resinfo: entry %v missing from its node", e))
}

// RestoreState rebuilds the fabric picture onto a freshly constructed
// manager (blank nodes, empty lists) from a payload of the given
// snapshot format version. taskByNo resolves task numbers to the run's
// restored task structs; it returns nil for unknown numbers, which
// this validation rejects.
func (m *Manager) RestoreState(r *snapshot.Reader, version uint64, taskByNo func(no int) *model.Task) error {
	if n := r.Int(); r.Err() == nil && n != len(m.nodes) {
		return fmt.Errorf("%w: snapshot has %d nodes, run parameters build %d", snapshot.ErrCorrupt, n, len(m.nodes))
	}
	idle := 0 // resident regions without a task
	for _, n := range m.nodes {
		if len(n.Entries) != 0 {
			return fmt.Errorf("resinfo: RestoreState needs blank nodes, node %d holds %d entries", n.No, len(n.Entries))
		}
		down := r.Bool()
		reconfigs := r.I64()
		nent := r.Count()
		if err := r.Err(); err != nil {
			return err
		}
		if reconfigs < 0 {
			return fmt.Errorf("%w: node %d reconfiguration count %d", snapshot.ErrCorrupt, n.No, reconfigs)
		}
		if down && nent > 0 {
			return fmt.Errorf("%w: down node %d holds %d configurations", snapshot.ErrCorrupt, n.No, nent)
		}
		if !n.PartialMode && nent > 1 {
			return fmt.Errorf("%w: full-mode node %d holds %d configurations", snapshot.ErrCorrupt, n.No, nent)
		}
		for i := 0; i < nent; i++ {
			cfgNo := r.Int()
			taskNo := r.Int()
			if err := r.Err(); err != nil {
				return err
			}
			cfg := m.ConfigByNo(cfgNo)
			if cfg == nil {
				return fmt.Errorf("%w: node %d hosts unknown configuration %d", snapshot.ErrCorrupt, n.No, cfgNo)
			}
			if cfg.ReqArea > n.AvailableArea {
				return fmt.Errorf("%w: node %d over-committed by configuration %d (Eq. 4)", snapshot.ErrCorrupt, n.No, cfgNo)
			}
			e := &model.Entry{Config: cfg, Node: n}
			if taskNo >= 0 {
				task := taskByNo(taskNo)
				if task == nil {
					return fmt.Errorf("%w: node %d runs unknown task %d", snapshot.ErrCorrupt, n.No, taskNo)
				}
				e.Task = task
			} else {
				idle++
			}
			n.Entries = append(n.Entries, e)
			n.AvailableArea -= cfg.ReqArea
		}
		n.Down = down
		n.ReconfigCount = reconfigs
	}
	// Every list decodes into one shared array: a list can hold at most
	// the idle regions no earlier list took.
	scratch := make([]*model.Entry, idle)
	placed := 0
	for no, l := range m.idle {
		n, err := m.restoreList(r, l, no, scratch[:idle-placed])
		if err != nil {
			return err
		}
		placed += n
		if version == 1 {
			skipList(r)
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if placed != idle {
		return fmt.Errorf("%w: %d idle regions resident but %d listed", snapshot.ErrCorrupt, idle, placed)
	}
	for _, n := range m.nodes {
		m.reindex(n)
	}
	return nil
}

// ConfigByNo returns the configuration numbered no, or nil, without
// charging a search: restores use it as is, and FindPreferredConfig
// adds the paper walk's charge. New requires configurations numbered
// by position, so the index answers directly.
func (m *Manager) ConfigByNo(no int) *model.Config {
	if no >= 0 && no < len(m.configs) {
		return m.configs[no]
	}
	return nil
}

// restoreList rebuilds the membership and order of configuration
// cfgNo's idle list l, decoding it into buf, which bounds its length.
// Only idle regions may be listed, each once. The snapshot holds
// head-first order and Add pushes at the head, so entries are re-added
// in reverse.
func (m *Manager) restoreList(r *snapshot.Reader, l *reslists.List, cfgNo int, buf []*model.Entry) (int, error) {
	n := r.Count()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if n > len(buf) {
		return 0, fmt.Errorf("%w: idle list of C%d holds %d entries, only %d idle regions are unlisted",
			snapshot.ErrCorrupt, cfgNo, n, len(buf))
	}
	entries := buf[:n]
	for i := 0; i < n; i++ {
		nodeNo := r.Int()
		slot := r.Int()
		if err := r.Err(); err != nil {
			return 0, err
		}
		if nodeNo < 0 || nodeNo >= len(m.nodes) {
			return 0, fmt.Errorf("%w: idle list of C%d references node %d", snapshot.ErrCorrupt, cfgNo, nodeNo)
		}
		node := m.nodes[nodeNo]
		if slot < 0 || slot >= len(node.Entries) {
			return 0, fmt.Errorf("%w: idle list of C%d references slot %d of node %d", snapshot.ErrCorrupt, cfgNo, slot, nodeNo)
		}
		e := node.Entries[slot]
		if e.Config.No != cfgNo {
			return 0, fmt.Errorf("%w: entry N%d/%d holds C%d, listed under C%d", snapshot.ErrCorrupt, nodeNo, slot, e.Config.No, cfgNo)
		}
		if e.Task != nil {
			return 0, fmt.Errorf("%w: busy entry N%d/%d in an idle list", snapshot.ErrCorrupt, nodeNo, slot)
		}
		if e.InIdle {
			return 0, fmt.Errorf("%w: entry N%d/%d listed twice", snapshot.ErrCorrupt, nodeNo, slot)
		}
		e.InIdle = true // marks a repeat within this list too, until the Adds below
		entries[i] = e
	}
	for i := n - 1; i >= 0; i-- {
		entries[i].InIdle = false
		l.Add(entries[i])
	}
	return n, nil
}

// skipList reads past one version 1 busy list: a count, then a node
// number and slot per entry. Count bounds the entries by the
// remaining bytes, and a failed read latches in r.
func skipList(r *snapshot.Reader) {
	for n := r.Count(); n > 0; n-- {
		r.Int()
		r.Int()
	}
}
