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
// per-configuration idle/busy lists, because FindMin breaks ties by
// first-encountered and Each walks charge metering in list order, so
// list order is observable in scheduling decisions and counters.
//
// Everything else is derived and rebuilt rather than stored: node
// AvailableArea follows Eq. 4 from the resident configurations,
// downCount is a recount, the SoA scan block (per-slot arrays and
// block bounds) re-syncs from node state through reindex, and the
// entry/evict pools are allocation artifacts that restore empty.

// EncodeState appends the manager's dynamic state: per-node fabric
// contents in node order, then per-configuration list orders in
// configuration order (never map order — encoding must be
// deterministic).
//
//lint:metering serialization walks are host-side I/O between ticks, not simulated scheduler work
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
	for _, cfg := range m.configs {
		p := m.pairs[cfg.No]
		encodeList(w, p.Idle)
		encodeList(w, p.Busy)
	}
}

// encodeList appends one list's membership in head-first order; each
// entry is addressed as (node number, slot in that node's Entries).
//
//lint:metering serialization walks are host-side I/O between ticks, not simulated scheduler work
func encodeList(w *snapshot.Writer, l *reslists.List) {
	w.Int(l.Len())
	l.Each(func(e *model.Entry) bool {
		w.Int(e.Node.No)
		w.Int(entrySlot(e))
		return true
	})
}

// entrySlot locates e within its node's entry slice.
//
//lint:metering serialization walks are host-side I/O between ticks, not simulated scheduler work
func entrySlot(e *model.Entry) int {
	for i, cur := range e.Node.Entries {
		if cur == e {
			return i
		}
	}
	panic(fmt.Sprintf("resinfo: entry %v missing from its node", e))
}

// RestoreState rebuilds the fabric picture onto a freshly constructed
// manager (blank nodes, empty lists). taskByNo resolves task numbers
// to the run's restored task structs; it returns nil for unknown
// numbers, which this validation rejects.
//
//lint:metering restore walks re-build host data structures between ticks; the resumed run's counters come from the snapshot
func (m *Manager) RestoreState(r *snapshot.Reader, taskByNo func(no int) *model.Task) error {
	if n := r.Int(); r.Err() == nil && n != len(m.nodes) {
		return fmt.Errorf("%w: snapshot has %d nodes, run parameters build %d", snapshot.ErrCorrupt, n, len(m.nodes))
	}
	m.downCount = 0
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
			}
			n.Entries = append(n.Entries, e)
			n.AvailableArea -= cfg.ReqArea
		}
		n.Down = down
		n.ReconfigCount = reconfigs
		if down {
			m.downCount++
		}
	}
	total := 0
	for _, n := range m.nodes {
		total += len(n.Entries)
	}
	// Every list decodes into one shared array: a list can hold at most
	// the resident entries no earlier list took.
	scratch := make([]*model.Entry, total)
	placed := 0
	for _, cfg := range m.configs {
		p := m.pairs[cfg.No]
		for _, l := range []*reslists.List{p.Idle, p.Busy} {
			n, err := m.restoreList(r, l, cfg, scratch[:total-placed])
			if err != nil {
				return err
			}
			placed += n
		}
	}
	if placed != total {
		return fmt.Errorf("%w: %d entries resident but %d listed", snapshot.ErrCorrupt, total, placed)
	}
	for _, n := range m.nodes {
		m.reindex(n)
	}
	return nil
}

// ConfigByNo returns the configuration numbered no, or nil. It is the
// unmetered lookup for restores, not a scheduling search: New requires
// configurations numbered by position, so the index answers directly.
func (m *Manager) ConfigByNo(no int) *model.Config {
	if no >= 0 && no < len(m.configs) {
		return m.configs[no]
	}
	return nil
}

// restoreList rebuilds one list's membership and order, decoding it
// into buf, which bounds its length. The snapshot holds head-first
// order and Add pushes at the head, so entries are re-added in
// reverse.
func (m *Manager) restoreList(r *snapshot.Reader, l *reslists.List, cfg *model.Config, buf []*model.Entry) (int, error) {
	n := r.Count()
	if err := r.Err(); err != nil {
		return 0, err
	}
	if n > len(buf) {
		return 0, fmt.Errorf("%w: %s list of C%d holds %d entries, only %d resident entries are unlisted",
			snapshot.ErrCorrupt, l.Kind(), cfg.No, n, len(buf))
	}
	entries := buf[:n]
	for i := 0; i < n; i++ {
		nodeNo := r.Int()
		slot := r.Int()
		if err := r.Err(); err != nil {
			return 0, err
		}
		if nodeNo < 0 || nodeNo >= len(m.nodes) {
			return 0, fmt.Errorf("%w: %s list of C%d references node %d", snapshot.ErrCorrupt, l.Kind(), cfg.No, nodeNo)
		}
		node := m.nodes[nodeNo]
		if slot < 0 || slot >= len(node.Entries) {
			return 0, fmt.Errorf("%w: %s list of C%d references slot %d of node %d", snapshot.ErrCorrupt, l.Kind(), cfg.No, slot, nodeNo)
		}
		e := node.Entries[slot]
		if e.Config != cfg {
			return 0, fmt.Errorf("%w: entry N%d/%d holds C%d, listed under C%d", snapshot.ErrCorrupt, nodeNo, slot, e.Config.No, cfg.No)
		}
		if e.InIdle || e.InBusy {
			return 0, fmt.Errorf("%w: entry N%d/%d listed twice", snapshot.ErrCorrupt, nodeNo, slot)
		}
		if idle := e.Task == nil; idle != (l.Kind() == reslists.Idle) {
			return 0, fmt.Errorf("%w: entry N%d/%d in the wrong state for the %s list", snapshot.ErrCorrupt, nodeNo, slot, l.Kind())
		}
		entries[i] = e
	}
	for i := n - 1; i >= 0; i-- {
		l.Add(entries[i])
	}
	return n, nil
}
