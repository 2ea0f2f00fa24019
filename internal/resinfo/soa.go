package resinfo

import (
	"fmt"
	"math/bits"
	"sort"

	"dreamsim/internal/model"
)

// The SoA (structure-of-arrays) layer is the manager's one placement-
// search structure. The fields every placement scan filters on — free
// area, Algorithm 1's reclaimable area, entry count, blank/partial/
// busy/down state — live in dense parallel arrays indexed by
// model.Node.Slot, so the scans walk cache-contiguous int64/uint8
// arrays in node order instead of chasing *Node pointers. A
// configuration's required capabilities (Eq. 1 caps) only filter nodes
// out of that walk: a scan calls Node.HasCaps on a candidate only when
// the configuration lists RequiredCaps.
//
// The slots are cut into blocks: block b covers slots [64b, 64b+64).
// A block keeps, per query key, an upper bound on the largest key
// among its candidate slots, plus its slots' exact entry count. A scan
// skips every block whose bound lies below the request: no slot in it
// can fit. sync raises a bound in O(1) when a slot's key grows and
// leaves it loose when the key shrinks; a scan that visits a whole
// block tightens its bound to the exact maximum.
//
// BestBlankNode's key, TotalArea, never changes during a run, so blank
// nodes are found from an index instead of a bound: the slots ordered
// by (TotalArea, slot), and a bitset over that order marking the blank
// ones. A query binary-searches the order for the request and takes
// the first set bit whose node has the required capabilities. sync
// flips a slot's bit when its blank flag changes.
//
// The index and the blocks change only host work: the paper's linear
// walks are still charged step for step, BestBlankNode and
// BestPartiallyBlankNode as the whole node list and Algorithm 1
// arithmetically from the per-block entry counts (alg1Steps).

// soaBlockSize is the number of slots one block summarises.
const soaBlockSize = 64

// Node-state flag bits, mirroring the classifications the placement
// phases filter on.
const (
	soaDown  uint8 = 1 << iota // Node.Down
	soaBlank                   // Blank() && !Down: a BestBlankNode candidate
	soaPart                    // PartialMode && !Blank(): a BestPartiallyBlankNode candidate
	soaBusy                    // State() == StateBusy: an AnyBusyNodeCouldFit candidate
)

// Query keys a block bounds, indexing soaBlock.bound.
const (
	keyPart = iota // AvailableArea of partial slots (BestPartiallyBlankNode)
	keyRecl        // reclaimable area of slots (FindAnyIdleNode)
	soaKeys
)

// soaFlagsOf derives a node's flag byte and its Algorithm 1 reclaimable
// area from its live state. The reclaimable area is AvailableArea plus
// the areas of the node's idle regions, or -1 when it holds no idle
// region: Algorithm 1 only tests a node after adding an idle region.
// It charges nothing; the transition that calls it charges its steps.
func soaFlagsOf(n *model.Node) (uint8, int64) {
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
	recl, idle := n.AvailableArea, false
	for _, e := range n.Entries {
		if e.Task != nil {
			f |= soaBusy
		} else {
			recl += e.Config.ReqArea
			idle = true
		}
	}
	if !idle {
		recl = -1
	}
	return f, recl
}

// soaBlock summarises the soaBlockSize consecutive slots it covers
// (fewer in the last block).
type soaBlock struct {
	// bound[k] is never below the key k of a slot that is a candidate
	// for query k; -1 when no slot is.
	bound [soaKeys]int64
	ents  int64 // exact: the slots' entries
}

// soaState is the manager's scan-field block.
type soaState struct {
	total  []int64    // Node.TotalArea by slot (static)
	avail  []int64    // Node.AvailableArea by slot
	recl   []int64    // reclaimable area by slot (soaFlagsOf)
	flags  []uint8    // soaDown/soaBlank/soaPart/soaBusy by slot
	nent   []int32    // len(Node.Entries) by slot
	blocks []soaBlock // blocks[b] covers slots [b*soaBlockSize, (b+1)*soaBlockSize)

	// The blank index. order holds the slots by (TotalArea, slot), rank
	// maps a slot to its position in order, and bit i of blank is set
	// when order[i] is blank. They are filled on the first blank search
	// that finds a blank node (indexed).
	order   []int32
	rank    []int32
	blank   []uint64
	indexed bool

	// census is the node census, kept by sync from the start.
	census Census
}

// span returns the slots [lo, hi) block b covers.
func (s *soaState) span(b int) (lo, hi int) {
	lo = b * soaBlockSize
	return lo, min(lo+soaBlockSize, len(s.flags))
}

// Census is the fabric's node census: the "current states of
// different nodes" the paper's monitoring module reads (§III). The
// SoA block keeps it on every state transition, so reading it costs
// no walk.
type Census struct {
	Nodes     int   // the population size
	TotalArea int64 // Σ TotalArea

	Blank int // working nodes holding no configuration
	Busy  int // nodes running at least one task
	Down  int // crashed nodes, which hold no configuration either

	AvailableArea int64 // Σ AvailableArea (Eq. 4)
	// WastedArea is the instantaneous Eq. 6 value: Σ AvailableArea
	// over the nodes holding at least one configuration.
	WastedArea int64
}

// Idle returns the number of nodes holding a configuration and
// running no task.
func (c Census) Idle() int { return c.Nodes - c.Blank - c.Busy - c.Down }

// newSoaState builds the scan block over a fresh population. The
// per-slot arrays of one type share one allocation.
func newSoaState(nodes []*model.Node) *soaState {
	n := len(nodes)
	i64 := make([]int64, 3*n)
	i32 := make([]int32, 3*n)
	s := &soaState{
		total:  i64[:n:n],
		avail:  i64[n : 2*n : 2*n],
		recl:   i64[2*n:],
		flags:  make([]uint8, n),
		nent:   i32[:n:n],
		blocks: make([]soaBlock, (n+soaBlockSize-1)/soaBlockSize),
		order:  i32[n : 2*n : 2*n],
		rank:   i32[2*n:],
		blank:  make([]uint64, (n+63)/64),
	}
	for b := range s.blocks {
		s.blocks[b].bound = [soaKeys]int64{-1, -1}
	}
	s.census.Nodes = n
	for i, node := range nodes {
		s.total[i] = node.TotalArea
		s.census.TotalArea += node.TotalArea
		s.sync(i, node)
	}
	return s
}

// sync refreshes one slot from its node, raises its block's bounds to
// cover the slot's new keys and keeps the blank index and the census
// in step. Before a slot's first sync its arrays read zero, so the
// first sync adds the node to the census.
func (s *soaState) sync(slot int, n *model.Node) {
	flags, recl := soaFlagsOf(n)
	nent := int32(len(n.Entries))
	b := &s.blocks[slot/soaBlockSize]
	b.ents += int64(nent - s.nent[slot])
	old := s.flags[slot]
	if (flags^old)&soaBlank != 0 && s.indexed {
		r := s.rank[slot]
		s.blank[r>>6] ^= 1 << (r & 63)
	}
	c := &s.census
	c.Blank += flagStep(old, flags, soaBlank)
	c.Busy += flagStep(old, flags, soaBusy)
	c.Down += flagStep(old, flags, soaDown)
	c.AvailableArea += n.AvailableArea - s.avail[slot]
	if s.nent[slot] > 0 {
		c.WastedArea -= s.avail[slot]
	}
	if nent > 0 {
		c.WastedArea += n.AvailableArea
	}
	s.avail[slot], s.recl[slot], s.flags[slot], s.nent[slot] = n.AvailableArea, recl, flags, nent
	if flags&soaPart != 0 && n.AvailableArea > b.bound[keyPart] {
		b.bound[keyPart] = n.AvailableArea
	}
	if recl > b.bound[keyRecl] {
		b.bound[keyRecl] = recl
	}
}

// flagStep returns 1 when a slot gains the flag bit, -1 when it loses
// it and 0 otherwise.
func flagStep(old, now, bit uint8) int {
	switch {
	case old&bit == now&bit:
		return 0
	case now&bit != 0:
		return 1
	}
	return -1
}

// check validates the scan block against live node state, and the
// census against a recount.
func (s *soaState) check(nodes []*model.Node) error {
	recount := Census{Nodes: len(nodes)}
	for i, n := range nodes {
		recount.TotalArea += n.TotalArea
		recount.AvailableArea += n.AvailableArea
		switch n.State() {
		case model.StateBlank:
			recount.Blank++
		case model.StateBusy:
			recount.Busy++
		case model.StateDown:
			recount.Down++
		}
		if !n.Blank() {
			recount.WastedArea += n.AvailableArea
		}
		if n.Slot != i {
			return fmt.Errorf("resinfo: node %d carries slot %d, expected %d", n.No, n.Slot, i)
		}
		if s.total[i] != n.TotalArea || s.avail[i] != n.AvailableArea {
			return fmt.Errorf("resinfo: SoA areas of node %d stale: total %d/%d, avail %d/%d",
				n.No, s.total[i], n.TotalArea, s.avail[i], n.AvailableArea)
		}
		if want, recl := soaFlagsOf(n); s.flags[i] != want || s.recl[i] != recl {
			return fmt.Errorf("resinfo: SoA flags of node %d stale: %04b reclaimable %d, expected %04b, %d",
				n.No, s.flags[i], s.recl[i], want, recl)
		}
		if int(s.nent[i]) != len(n.Entries) {
			return fmt.Errorf("resinfo: SoA entry count of node %d stale: %d, expected %d", n.No, s.nent[i], len(n.Entries))
		}
	}
	for b := range s.blocks {
		if err := s.checkBlock(nodes, b); err != nil {
			return fmt.Errorf("resinfo: block %d: %w", b, err)
		}
	}
	if s.census != recount {
		return fmt.Errorf("resinfo: census %+v stale, the nodes count %+v", s.census, recount)
	}
	if s.indexed {
		return s.checkBlankIndex()
	}
	return nil
}

// checkBlankIndex validates the built blank index: order holds the
// slots sorted by (TotalArea, slot), rank is its inverse, and the
// blank bits are exactly the blank slots.
func (s *soaState) checkBlankIndex() error {
	for p, r := range s.rank {
		if r < 0 || int(r) >= len(s.order) || s.order[r] != int32(p) {
			return fmt.Errorf("resinfo: rank of slot %d is %d, not its position in the blank index's order", p, r)
		}
	}
	for i := 1; i < len(s.order); i++ {
		if !s.areaBefore(s.order[i-1], s.order[i]) {
			return fmt.Errorf("resinfo: order position %d breaks (TotalArea, slot) order", i)
		}
	}
	set := 0
	for _, w := range s.blank {
		set += bits.OnesCount64(w)
	}
	if set != s.census.Blank {
		return fmt.Errorf("resinfo: %d blank bits set for %d blank slots", set, s.census.Blank)
	}
	for p, r := range s.rank {
		if bit := s.blank[r>>6]>>(r&63)&1 != 0; bit != (s.flags[p]&soaBlank != 0) {
			return fmt.Errorf("resinfo: blank bit of slot %d is %v, its flags %04b", p, bit, s.flags[p])
		}
	}
	return nil
}

// checkBlock validates one block: its bounds cover its slots' keys and
// its entry count is exact.
func (s *soaState) checkBlock(nodes []*model.Node, b int) error {
	blk := &s.blocks[b]
	top := [soaKeys]int64{-1, -1}
	var ents int64
	lo, hi := s.span(b)
	for p := lo; p < hi; p++ {
		ents += int64(len(nodes[p].Entries))
		keys := [soaKeys]int64{-1, s.recl[p]}
		if s.flags[p]&soaPart != 0 {
			keys[keyPart] = s.avail[p]
		}
		for k, v := range keys {
			if v > top[k] {
				top[k] = v
			}
		}
	}
	for k := range top {
		if blk.bound[k] < top[k] {
			return fmt.Errorf("bound %d is %d, below slot key %d", k, blk.bound[k], top[k])
		}
	}
	if blk.ents != ents {
		return fmt.Errorf("entry count %d, its slots hold %d", blk.ents, ents)
	}
	return nil
}

// scanBest is the argmin search behind BestPartiallyBlankNode: the
// partial node with the smallest AvailableArea of at least ReqArea
// that has the required capabilities, or nil. Blocks whose bound lies
// below ReqArea are skipped, and every visited block's bound is
// tightened to its exact maximum. Slots ascend, so the strict < keeps
// the lower slot on a tie, as the paper's walk in node order does. The
// caller charges the walk.
func (m *Manager) scanBest(cfg *model.Config) *model.Node {
	s := m.soa
	best := -1
	var bestArea int64
	for b := range s.blocks {
		blk := &s.blocks[b]
		if blk.bound[keyPart] < cfg.ReqArea {
			continue
		}
		top := int64(-1)
		lo, hi := s.span(b)
		for p := lo; p < hi; p++ {
			if s.flags[p]&soaPart == 0 {
				continue
			}
			a := s.avail[p]
			top = max(top, a)
			if a < cfg.ReqArea || (best >= 0 && a >= bestArea) {
				continue
			}
			if len(cfg.RequiredCaps) > 0 && !m.nodes[p].HasCaps(cfg.RequiredCaps) {
				continue
			}
			bestArea, best = a, p
		}
		blk.bound[keyPart] = top
	}
	if best < 0 {
		return nil
	}
	return m.nodes[best]
}

// scanBlank is the blank-node search behind BestBlankNode: the blank
// node with the smallest TotalArea of at least ReqArea that has the
// required capabilities, ties to the lower slot, or nil. It is the
// first set blank bit at or after the area's lower bound in the blank
// index's order whose node passes HasCaps. The caller charges the
// walk.
func (m *Manager) scanBlank(cfg *model.Config) *model.Node {
	s := m.soa
	if s.census.Blank == 0 {
		return nil
	}
	if !s.indexed {
		s.buildBlankIndex()
	}
	end := len(s.order)
	lo := sort.Search(end, func(i int) bool { return s.total[s.order[i]] >= cfg.ReqArea })
	for i := nextSet(s.blank, lo, end); i < end; i = nextSet(s.blank, i+1, end) {
		if p := s.order[i]; len(cfg.RequiredCaps) == 0 || m.nodes[p].HasCaps(cfg.RequiredCaps) {
			return m.nodes[p]
		}
	}
	return nil
}

// nextSet returns the position of the first set bit of words at or
// after i, or a position at or past end when none lies before end.
func nextSet(words []uint64, i, end int) int {
	for ; i < end; i = (i | 63) + 1 {
		if w := words[i>>6] >> (i & 63); w != 0 {
			return i + bits.TrailingZeros64(w)
		}
	}
	return end
}

// areaBefore reports whether slot a precedes slot b in the blank
// index's (TotalArea, slot) order.
func (s *soaState) areaBefore(a, b int32) bool {
	return s.total[a] < s.total[b] || (s.total[a] == s.total[b] && a < b)
}

// buildBlankIndex orders the slots by (TotalArea, slot) and sets the
// blank bits. TotalArea never changes during a run, so this runs once;
// from then on sync flips the bits. It runs on first use rather than
// in New, so a manager that never meets a blank node never pays for
// the sort.
func (s *soaState) buildBlankIndex() {
	for i := range s.order {
		s.order[i] = int32(i)
	}
	sortByKey(s.order, s.rank, s.total) // rank is unused until filled below
	for i, p := range s.order {
		s.rank[p] = int32(i)
		if s.flags[p]&soaBlank != 0 {
			s.blank[i>>6] |= 1 << (i & 63)
		}
	}
	s.indexed = true
}

// sortByKey sorts idx stably by key[idx[i]] with an LSD radix sort
// over the keys' bytes, so equal keys keep their order in idx. Bytes
// above the highest bit in which the smallest and largest keys differ
// are shared by every key and take no pass. tmp is a buffer of the
// same length as idx.
func sortByKey(idx, tmp []int32, key []int64) {
	if len(idx) < 2 {
		return
	}
	lo, hi := radixKey(key[idx[0]]), radixKey(key[idx[0]])
	for _, p := range idx {
		lo, hi = min(lo, radixKey(key[p])), max(hi, radixKey(key[p]))
	}
	src, dst := idx, tmp
	for shift := uint(0); shift < 64 && (lo^hi)>>shift != 0; shift += 8 {
		var count [256]int
		for _, p := range src {
			count[radixKey(key[p])>>shift&0xff]++
		}
		sum := 0
		for b, c := range count {
			count[b], sum = sum, sum+c
		}
		for _, p := range src {
			b := radixKey(key[p]) >> shift & 0xff
			dst[count[b]] = p
			count[b]++
		}
		src, dst = dst, src
	}
	copy(idx, src) // a no-op when src is idx
}

// radixKey maps a key to an unsigned value of the same order, by
// flipping its sign bit.
func radixKey(k int64) uint64 { return uint64(k) ^ 1<<63 }

// firstReclaimable returns the lowest slot whose reclaimable area
// reaches ReqArea and whose node has the required capabilities — the
// node Algorithm 1 stops at — or the population size when none does.
// Blocks whose bound lies below ReqArea are skipped, and a block
// visited to its end without a hit has its bound tightened to the
// exact maximum.
func (m *Manager) firstReclaimable(cfg *model.Config) int {
	s := m.soa
	for b := range s.blocks {
		blk := &s.blocks[b]
		if blk.bound[keyRecl] < cfg.ReqArea {
			continue
		}
		top := int64(-1)
		lo, hi := s.span(b)
		for p := lo; p < hi; p++ {
			a := s.recl[p]
			if a >= cfg.ReqArea && (len(cfg.RequiredCaps) == 0 || m.nodes[p].HasCaps(cfg.RequiredCaps)) {
				return p
			}
			top = max(top, a)
		}
		blk.bound[keyRecl] = top
	}
	return len(s.recl)
}

// alg1Steps is Algorithm 1's step count over the nodes before slot
// limit: one step per entry of each node that has the required
// capabilities, one step per node that lacks one. Without required
// capabilities every node has them, so a block that ends by limit is
// charged from its entry count and only the block limit cuts is walked
// slot by slot; with them every slot before limit is walked. A node
// holding exactly one entry costs one step either way, so only the
// others need HasCaps.
func (m *Manager) alg1Steps(caps []string, limit int) uint64 {
	s := m.soa
	var steps int64
	if len(caps) > 0 {
		for p := range limit {
			n := int64(s.nent[p])
			if n != 1 && !m.nodes[p].HasCaps(caps) {
				n = 1
			}
			steps += n
		}
		return uint64(steps)
	}
	for b := range s.blocks {
		lo, hi := s.span(b)
		if hi > limit {
			for p := lo; p < limit; p++ {
				steps += int64(s.nent[p])
			}
			break
		}
		steps += s.blocks[b].ents
	}
	return uint64(steps)
}

// scanFirstFit returns the lowest slot flagged want whose TotalArea
// reaches ReqArea and whose node has the required capabilities, or -1:
// the early-exit walk in node order.
func (m *Manager) scanFirstFit(cfg *model.Config, want uint8) int {
	s := m.soa
	for p, f := range s.flags {
		if f&want != 0 && s.total[p] >= cfg.ReqArea &&
			(len(cfg.RequiredCaps) == 0 || m.nodes[p].HasCaps(cfg.RequiredCaps)) {
			return p
		}
	}
	return -1
}

// Deprecated: ClosePool does nothing; managers own no worker pool.
//
//lint:deadexport (a) benchsuite, a separate module, calls it
func (m *Manager) ClosePool() {}
