package resinfo

import (
	"fmt"

	"dreamsim/internal/model"
)

// The SoA (structure-of-arrays) layer: the fields every placement scan
// filters on — free area, capability mask, blank/partial/busy/down
// state — live in dense parallel arrays indexed by model.Node.Slot, so
// the linear scans walk cache-contiguous int64/uint8 arrays instead of
// chasing *Node pointers and re-deriving State() per visit. On top of
// the arrays sit capability shards: searches never cross capability
// masks (a node missing a required capability can never host the
// configuration), so nodes are partitioned by exact capability mask
// and each query touches only the shards whose mask covers the
// configuration's requirement.
//
// The layer exists on every manager — it is the linear scan now, with
// the treap index (index.go) still taking over when FastSearch is live
// — and reindex keeps it in sync on the same transition tail that
// syncs the treaps.
//
// Populations whose capability name space exceeds 64 distinct names
// cannot be mask-encoded; they degrade to a single shard holding every
// node, with the per-node string subset test (HasCaps) back in the
// scan filter — the same fallback rule the treap index applies, with
// identical results and metering either way.

// Node-state flag bits, mirroring the classifications the placement
// phases filter on.
const (
	soaDown  uint8 = 1 << iota // Node.Down
	soaBlank                   // Blank() && !Down: a BestBlankNode candidate
	soaPart                    // PartialMode && !Blank(): a BestPartiallyBlankNode candidate
	soaBusy                    // State() == StateBusy: an AnyBusyNodeCouldFit candidate
)

// soaFlagsOf derives a node's flag byte from its live state.
//
//lint:metering flag derivation inspects one node during a state transition; the transition's walk is charged by its caller
func soaFlagsOf(n *model.Node) uint8 {
	var f uint8
	blank := len(n.Entries) == 0
	if n.Down {
		f |= soaDown
	}
	if blank && !n.Down {
		f |= soaBlank
	}
	if n.PartialMode && !blank {
		f |= soaPart
	}
	for _, e := range n.Entries {
		if e.Task != nil {
			f |= soaBusy
			break
		}
	}
	return f
}

// soaShard is one capability class: the slots of every node sharing
// one exact capability mask, in ascending slot order (so an in-order
// walk visits nodes in node-list order and ties resolve to the lower
// node number without extra work).
type soaShard struct {
	mask    uint64
	members []int32
}

// soaState is the manager's scan-field block.
type soaState struct {
	total   []int64 // Node.TotalArea by slot (static)
	avail   []int64 // Node.AvailableArea by slot
	flags   []uint8 // soaDown/soaBlank/soaPart/soaBusy by slot
	masks   []uint64
	capBits map[string]uint64
	maskOK  bool // false: >64 capability names, single-shard fallback
	shards  []soaShard
}

// newSoaState builds the scan block over a fresh population. Both node
// capabilities and configuration requirements register in the bit
// assignment, so every well-formed query mask is representable.
//
//lint:metering construction-time layout build; the paper meters only the running scheduler
func newSoaState(nodes []*model.Node, configs []*model.Config) *soaState {
	s := &soaState{
		total: make([]int64, len(nodes)),
		avail: make([]int64, len(nodes)),
		flags: make([]uint8, len(nodes)),
	}
	capLists := make([][]string, 0, len(nodes)+len(configs))
	for _, n := range nodes {
		capLists = append(capLists, n.Caps)
	}
	for _, cfg := range configs {
		capLists = append(capLists, cfg.RequiredCaps)
	}
	s.capBits, s.maskOK = model.CapBits(capLists...)
	if s.maskOK {
		s.masks = make([]uint64, len(nodes))
		shardIdx := make(map[uint64]int, 8)
		for i, n := range nodes {
			mask, _ := model.CapMaskOf(s.capBits, n.Caps)
			s.masks[i] = mask
			si, seen := shardIdx[mask]
			if !seen {
				si = len(s.shards)
				shardIdx[mask] = si
				s.shards = append(s.shards, soaShard{mask: mask})
			}
			s.shards[si].members = append(s.shards[si].members, int32(i))
		}
	} else {
		members := make([]int32, len(nodes))
		for i := range nodes {
			members[i] = int32(i)
		}
		s.shards = []soaShard{{members: members}}
	}
	for i, n := range nodes {
		s.total[i] = int64(n.TotalArea)
		s.sync(i, n)
	}
	return s
}

// sync refreshes one slot from its node.
func (s *soaState) sync(slot int, n *model.Node) {
	s.avail[slot] = int64(n.AvailableArea)
	s.flags[slot] = soaFlagsOf(n)
}

// reqMask folds a required-capability list into its query mask. A
// false second result under maskOK means a capability no node (and no
// registered configuration) declares — nothing can host it.
func (s *soaState) reqMask(caps []string) (uint64, bool) {
	if !s.maskOK {
		return 0, false
	}
	return model.CapMaskOf(s.capBits, caps)
}

// check validates the scan block against live node state.
//
//lint:metering debug validator; its walks are host-side checking, not simulated scheduler work
func (s *soaState) check(nodes []*model.Node) error {
	for i, n := range nodes {
		if n.Slot != i {
			return fmt.Errorf("resinfo: node %d carries slot %d, expected %d", n.No, n.Slot, i)
		}
		if s.total[i] != int64(n.TotalArea) || s.avail[i] != int64(n.AvailableArea) {
			return fmt.Errorf("resinfo: SoA areas of node %d stale: total %d/%d, avail %d/%d",
				n.No, s.total[i], n.TotalArea, s.avail[i], n.AvailableArea)
		}
		if want := soaFlagsOf(n); s.flags[i] != want {
			return fmt.Errorf("resinfo: SoA flags of node %d stale: %04b, expected %04b", n.No, s.flags[i], want)
		}
		if s.maskOK {
			mask, ok := model.CapMaskOf(s.capBits, n.Caps)
			if !ok || s.masks[i] != mask {
				return fmt.Errorf("resinfo: SoA capability mask of node %d stale", n.No)
			}
		}
	}
	// Shard masks are distinct, so a slot listed under the wrong mask
	// or in two shards fails the mask test.
	seen := 0
	for si := range s.shards {
		sh := &s.shards[si]
		prev := int32(-1)
		for _, p := range sh.members {
			if p <= prev {
				return fmt.Errorf("resinfo: shard %d members out of order", si)
			}
			if s.maskOK && s.masks[p] != sh.mask {
				return fmt.Errorf("resinfo: node %d sharded under mask %x, carries %x",
					nodes[p].No, sh.mask, s.masks[p])
			}
			prev = p
			seen++
		}
	}
	if seen != len(nodes) {
		return fmt.Errorf("resinfo: shards hold %d slots, population has %d", seen, len(nodes))
	}
	return nil
}

// shardBest is the argmin scan over one shard: the minimum key
// (TotalArea for blank placement, AvailableArea for partial placement)
// among members matching the flag filter with sufficient area. Members
// ascend, so the strict < keeps the lower slot on a tie. Returns the
// best (key, slot), slot -1 when the shard holds no candidate.
//
//dreamsim:noalloc
func (m *Manager) shardBest(sh *soaShard, want uint8, key []int64, reqArea int64, caps []string, useCaps bool) (int64, int64) {
	flags := m.soa.flags
	bestPos := int64(-1)
	var bestKey int64
	for _, p := range sh.members {
		if flags[p]&want == 0 {
			continue
		}
		a := key[p]
		if a < reqArea {
			continue
		}
		if useCaps && !m.nodes[p].HasCaps(caps) {
			continue
		}
		if bestPos < 0 || a < bestKey {
			bestKey, bestPos = a, int64(p)
		}
	}
	return bestKey, bestPos
}

// scanBest is the sharded argmin search behind BestBlankNode (want =
// soaBlank, key = TotalArea) and BestPartiallyBlankNode (want =
// soaPart, key = AvailableArea). It reduces shard results by
// (key, slot) with ties to the lower slot — exactly the node the flat
// strict-< walk in node order would keep. The caller charges the walk.
//
//dreamsim:noalloc
func (m *Manager) scanBest(cfg *model.Config, want uint8, key []int64) *model.Node {
	s := m.soa
	// masked: the requirement is representable, so incompatible shards
	// are skipped wholesale and the mask test replaces HasCaps. An
	// unrepresentable requirement (>64-name population, or a query
	// capability the build never registered) degrades to the per-node
	// string test over every shard — the flat paper scan.
	req, reqOK := s.reqMask(cfg.RequiredCaps)
	masked := s.maskOK && reqOK
	bestPos := int64(-1)
	var bestKey int64
	for si := range s.shards {
		sh := &s.shards[si]
		if masked && sh.mask&req != req {
			continue
		}
		a, p := m.shardBest(sh, want, key, int64(cfg.ReqArea), cfg.RequiredCaps, !masked)
		if p >= 0 && (bestPos < 0 || a < bestKey || (a == bestKey && p < bestPos)) {
			bestKey, bestPos = a, p
		}
	}
	if bestPos < 0 {
		return nil
	}
	return m.nodes[bestPos]
}

// scanFirstFit returns the lowest slot matching want with TotalArea ≥
// the requirement across the compatible shards, or -1 — the sharded
// form of the early-exit busy walk, whose charge is slot + 1.
//
//dreamsim:noalloc
func (m *Manager) scanFirstFit(cfg *model.Config, want uint8) int64 {
	s := m.soa
	req, reqOK := s.reqMask(cfg.RequiredCaps)
	masked := s.maskOK && reqOK
	best := int64(-1)
	for si := range s.shards {
		sh := &s.shards[si]
		if masked && sh.mask&req != req {
			continue
		}
		pos := int64(-1)
		for _, p := range sh.members {
			if s.flags[p]&want == 0 || s.total[p] < int64(cfg.ReqArea) {
				continue
			}
			if !masked && !m.nodes[p].HasCaps(cfg.RequiredCaps) {
				continue
			}
			pos = int64(p)
			break
		}
		if pos >= 0 && (best < 0 || pos < best) {
			best = pos
		}
	}
	return best
}

// ShardCount reports the number of capability classes (1 when the
// population degraded to the flat fallback).
func (m *Manager) ShardCount() int { return len(m.soa.shards) }

// Deprecated: ClosePool does nothing; managers own no worker pool.
func (m *Manager) ClosePool() {}
