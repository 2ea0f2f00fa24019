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
// arrays instead of chasing *Node pointers. On top of the arrays sit
// capability shards: searches never cross capability masks (a node
// missing a required capability can never host the configuration), so
// nodes are partitioned by exact capability mask and each query touches
// only the shards whose mask covers the configuration's requirement.
//
// Each shard is cut into blocks of soaBlockSize members. A block keeps,
// per query key, an upper bound on the largest key among its candidate
// members, plus its members' exact entry count. A scan skips every
// block whose bound lies below the request: no member can fit. sync
// raises a bound in O(1) when a member's key grows and leaves it loose
// when the key shrinks; a scan that visits a whole block tightens its
// bound to the exact maximum.
//
// BestBlankNode's key, TotalArea, never changes during a run, so blank
// nodes are found from an index instead of a bound: each shard's
// members ordered by (TotalArea, slot), and a bitset over that order
// marking the blank ones. A query binary-searches the order for the
// request and takes the first set bit. sync flips a member's bit when
// its blank flag changes.
//
// The index and the blocks change only host work: the paper's linear
// walks are still charged step for step, BestBlankNode and
// BestPartiallyBlankNode as the whole node list and Algorithm 1
// arithmetically from the per-block entry counts (alg1Steps).
//
// Populations whose capability name space exceeds 64 distinct names
// cannot be mask-encoded; they degrade to a single shard holding every
// node, cut into the same blocks, with the per-node string subset test
// (HasCaps) in place of the mask test.

// soaBlockSize is the number of shard members one block summarises.
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
	keyPart = iota // AvailableArea of partial members (BestPartiallyBlankNode)
	keyRecl        // reclaimable area of members (FindAnyIdleNode)
	soaKeys
)

// soaFlagsOf derives a node's flag byte and its Algorithm 1 reclaimable
// area from its live state. The reclaimable area is AvailableArea plus
// the areas of the node's idle regions, or -1 when it holds no idle
// region: Algorithm 1 only tests a node after adding an idle region.
//
//lint:metering flag derivation inspects one node during a state transition; the transition's walk is charged by its caller
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

// soaBlock summarises up to soaBlockSize consecutive shard members.
type soaBlock struct {
	// bound[k] is never below the key k of a member that is a
	// candidate for query k; -1 when no member is.
	bound [soaKeys]int64
	ents  int64 // exact: the members' entries
}

// soaShard is one capability class: the slots of every node sharing
// one exact capability mask, in ascending slot order (so an in-order
// walk visits nodes in node-list order and ties resolve to the lower
// node number without extra work), and the blocks that cut them.
type soaShard struct {
	mask    uint64
	base    int // members' offset in the shared member and order arrays
	members []int32
	blocks  []soaBlock // blocks[b] covers members[b*soaBlockSize:]
}

// span returns the members block b covers.
func (sh *soaShard) span(b int) []int32 {
	lo := b * soaBlockSize
	return sh.members[lo:min(lo+soaBlockSize, len(sh.members))]
}

// soaState is the manager's scan-field block.
type soaState struct {
	total   []int64    // Node.TotalArea by slot (static)
	avail   []int64    // Node.AvailableArea by slot
	recl    []int64    // reclaimable area by slot (soaFlagsOf)
	flags   []uint8    // soaDown/soaBlank/soaPart/soaBusy by slot
	nent    []int32    // len(Node.Entries) by slot
	blk     []int32    // slot -> its block's index in blocks
	blocks  []soaBlock // every shard's blocks, shard by shard
	capBits map[string]uint64
	maskOK  bool // false: >64 capability names, single-shard fallback
	shards  []soaShard

	// The blank index. order[sh.base:] holds shard sh's members by
	// (TotalArea, slot), rank maps a slot to its position in order, and
	// bit i of blank is set when order[i] is blank. They are filled on
	// the first blank search that finds a blank node (indexed).
	order   []int32
	rank    []int32
	blank   []uint64
	indexed bool

	// census is the node census, kept by sync from the start.
	census Census
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

// newSoaState builds the scan block over a fresh population. Both node
// capabilities and configuration requirements register in the bit
// assignment, so every well-formed query mask is representable. The
// per-slot arrays of one type share one allocation.
//
//lint:metering construction-time layout build; the paper meters only the running scheduler
func newSoaState(nodes []*model.Node, configs []*model.Config) *soaState {
	n := len(nodes)
	i64 := make([]int64, 3*n)
	i32 := make([]int32, 5*n)
	s := &soaState{
		total: i64[:n:n],
		avail: i64[n : 2*n : 2*n],
		recl:  i64[2*n:],
		flags: make([]uint8, n),
		nent:  i32[:n:n],
		blk:   i32[n : 2*n : 2*n],
		order: i32[3*n : 4*n : 4*n],
		rank:  i32[4*n:],
		blank: make([]uint64, (n+63)/64),
	}
	members := i32[2*n : 3*n : 3*n]
	s.capBits, s.maskOK = model.CapBits(nodes, configs)

	// Group slots by mask: blk holds each slot's shard until the
	// blocks exist, and members is carved shard by shard.
	var sizes []int
	if s.maskOK {
		shardIdx := make(map[uint64]int, 8)
		for i, node := range nodes {
			mask, _ := model.CapMaskOf(s.capBits, node.Caps)
			si, seen := shardIdx[mask]
			if !seen {
				si = len(s.shards)
				shardIdx[mask] = si
				s.shards = append(s.shards, soaShard{mask: mask})
				sizes = append(sizes, 0)
			}
			s.blk[i] = int32(si)
			sizes[si]++
		}
	} else {
		s.shards = []soaShard{{}}
		sizes = []int{n}
	}
	nblocks, base := 0, 0
	for si := range s.shards {
		s.shards[si].base = base
		s.shards[si].members = members[base : base : base+sizes[si]]
		base += sizes[si]
		nblocks += (sizes[si] + soaBlockSize - 1) / soaBlockSize
	}
	for i := range nodes {
		sh := &s.shards[s.blk[i]]
		sh.members = append(sh.members, int32(i))
	}
	s.blocks = make([]soaBlock, nblocks)
	base = 0
	for si := range s.shards {
		sh := &s.shards[si]
		nb := (len(sh.members) + soaBlockSize - 1) / soaBlockSize
		sh.blocks = s.blocks[base : base+nb : base+nb]
		for j, p := range sh.members {
			s.blk[p] = int32(base + j/soaBlockSize)
		}
		base += nb
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
	b := &s.blocks[s.blk[slot]]
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

// reqMask folds a required-capability list into its query mask. A
// false second result under maskOK means a capability no node (and no
// registered configuration) declares — nothing can host it.
func (s *soaState) reqMask(caps []string) (uint64, bool) {
	if !s.maskOK {
		return 0, false
	}
	return model.CapMaskOf(s.capBits, caps)
}

// check validates the scan block against live node state, and the
// census against a recount.
//
//lint:metering debug validator; its walks are host-side checking, not simulated scheduler work
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
			if mask, ok := model.CapMaskOf(s.capBits, nodes[p].Caps); s.maskOK && (!ok || mask != sh.mask) {
				return fmt.Errorf("resinfo: node %d sharded under mask %x, carries %x",
					nodes[p].No, sh.mask, mask)
			}
			prev = p
			seen++
		}
		if want := (len(sh.members) + soaBlockSize - 1) / soaBlockSize; len(sh.blocks) != want {
			return fmt.Errorf("resinfo: shard %d has %d blocks for %d members", si, len(sh.blocks), len(sh.members))
		}
		for b := range sh.blocks {
			if err := s.checkBlock(nodes, sh, b); err != nil {
				return fmt.Errorf("resinfo: shard %d block %d: %w", si, b, err)
			}
		}
	}
	if seen != len(nodes) {
		return fmt.Errorf("resinfo: shards hold %d slots, population has %d", seen, len(nodes))
	}
	if s.census != recount {
		return fmt.Errorf("resinfo: census %+v stale, the nodes count %+v", s.census, recount)
	}
	if s.indexed {
		return s.checkBlankIndex()
	}
	return nil
}

// checkBlankIndex validates the built blank index: each shard's order
// is a permutation of its members sorted by (TotalArea, slot), rank is
// its inverse, and the blank bits are exactly the blank slots.
func (s *soaState) checkBlankIndex() error {
	for si := range s.shards {
		sh := &s.shards[si]
		lo, hi := sh.base, sh.base+len(sh.members)
		for _, p := range sh.members {
			if r := int(s.rank[p]); r < lo || r >= hi || s.order[r] != p {
				return fmt.Errorf("resinfo: shard %d: rank of slot %d is %d, not its position in the shard's order", si, p, r)
			}
		}
		for i := lo + 1; i < hi; i++ {
			if !s.areaBefore(s.order[i-1], s.order[i]) {
				return fmt.Errorf("resinfo: shard %d: order position %d breaks (TotalArea, slot) order", si, i)
			}
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

// checkBlock validates one block: its members map back to it, its
// bounds cover their keys and its entry count is exact.
func (s *soaState) checkBlock(nodes []*model.Node, sh *soaShard, b int) error {
	blk := &sh.blocks[b]
	top := [soaKeys]int64{-1, -1}
	var ents int64
	for _, p := range sh.span(b) {
		if &s.blocks[s.blk[p]] != blk {
			return fmt.Errorf("node %d maps to block %d", nodes[p].No, s.blk[p])
		}
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
			return fmt.Errorf("bound %d is %d, below member key %d", k, blk.bound[k], top[k])
		}
	}
	if blk.ents != ents {
		return fmt.Errorf("entry count %d, members hold %d", blk.ents, ents)
	}
	return nil
}

// shardBest is the argmin scan over one shard: the minimum
// AvailableArea among partial members with sufficient area. Blocks
// whose bound lies below reqArea are skipped, and every visited block's
// bound is tightened to its exact maximum. Members ascend, so the
// strict < keeps the lower slot on a tie. Returns the best (area,
// slot), slot -1 when the shard holds no candidate.
//
//dreamsim:noalloc
func (m *Manager) shardBest(sh *soaShard, reqArea int64, caps []string, useCaps bool) (int64, int64) {
	flags, avail := m.soa.flags, m.soa.avail
	bestPos := int64(-1)
	var bestKey int64
	for b := range sh.blocks {
		blk := &sh.blocks[b]
		if blk.bound[keyPart] < reqArea {
			continue
		}
		top := int64(-1)
		for _, p := range sh.span(b) {
			if flags[p]&soaPart == 0 {
				continue
			}
			a := avail[p]
			top = max(top, a)
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
		blk.bound[keyPart] = top
	}
	return bestKey, bestPos
}

// scanBest is the sharded argmin search behind BestPartiallyBlankNode.
// It reduces shard results by (AvailableArea, slot) with ties to the
// lower slot — exactly the node the flat strict-< walk in node order
// would keep. The caller charges the walk.
//
//dreamsim:noalloc
func (m *Manager) scanBest(cfg *model.Config) *model.Node {
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
		a, p := m.shardBest(sh, cfg.ReqArea, cfg.RequiredCaps, !masked)
		if p >= 0 && (bestPos < 0 || a < bestKey || (a == bestKey && p < bestPos)) {
			bestKey, bestPos = a, p
		}
	}
	if bestPos < 0 {
		return nil
	}
	return m.nodes[bestPos]
}

// scanBlank is the blank-node search behind BestBlankNode: the blank,
// compatible node with the smallest sufficient TotalArea, ties to the
// lower slot, or nil. Each compatible shard answers from the blank
// index (firstBlank), and the shard answers reduce by (TotalArea,
// slot). The caller charges the walk.
//
//dreamsim:noalloc
func (m *Manager) scanBlank(cfg *model.Config) *model.Node {
	s := m.soa
	if s.census.Blank == 0 {
		return nil
	}
	if !s.indexed {
		s.buildBlankIndex()
	}
	req, reqOK := s.reqMask(cfg.RequiredCaps)
	masked := s.maskOK && reqOK // as in scanBest
	best := int32(-1)
	for si := range s.shards {
		sh := &s.shards[si]
		if masked && sh.mask&req != req {
			continue
		}
		p := m.firstBlank(sh, cfg.ReqArea, cfg.RequiredCaps, !masked)
		if p >= 0 && (best < 0 || s.areaBefore(p, best)) {
			best = p
		}
	}
	if best < 0 {
		return nil
	}
	return m.nodes[best]
}

// firstBlank returns shard sh's blank member with the smallest TotalArea
// of at least reqArea, ties to the lower slot, or -1: the first set
// blank bit at or after the area's lower bound in the shard's order.
// With useCaps the walk goes on past members that fail HasCaps.
//
//dreamsim:noalloc
func (m *Manager) firstBlank(sh *soaShard, reqArea int64, caps []string, useCaps bool) int32 {
	s := m.soa
	order := s.order[sh.base : sh.base+len(sh.members)]
	lo := sh.base + sort.Search(len(order), func(i int) bool { return s.total[order[i]] >= reqArea })
	end := sh.base + len(order)
	for i := nextSet(s.blank, lo, end); i < end; i = nextSet(s.blank, i+1, end) {
		if p := s.order[i]; !useCaps || m.nodes[p].HasCaps(caps) {
			return p
		}
	}
	return -1
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

// buildBlankIndex orders every shard's members by (TotalArea, slot) and
// sets the blank bits. TotalArea never changes during a run, so this
// runs once; from then on sync flips the bits. It runs on first use
// rather than in New, so a manager that never meets a blank node never
// pays for the sort.
//
//dreamsim:noalloc
func (s *soaState) buildBlankIndex() {
	for si := range s.shards {
		sh := &s.shards[si]
		order := s.order[sh.base : sh.base+len(sh.members)]
		copy(order, sh.members)
		sortByKey(order, s.rank[:len(order)], s.total) // rank is unused until filled below
	}
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
//
//dreamsim:noalloc
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

// firstReclaimable returns the lowest member of sh below slot limit
// whose reclaimable area reaches reqArea, or -1: the node Algorithm 1
// would stop at within the shard, if it comes before limit. Blocks
// whose bound lies below reqArea are skipped, and a block visited to
// its end without a hit has its bound tightened to the exact maximum.
//
//dreamsim:noalloc
func (m *Manager) firstReclaimable(sh *soaShard, reqArea, limit int64, caps []string, useCaps bool) int64 {
	recl := m.soa.recl
	for b := range sh.blocks {
		span := sh.span(b)
		if int64(span[0]) >= limit {
			break
		}
		blk := &sh.blocks[b]
		if blk.bound[keyRecl] < reqArea {
			continue
		}
		top := int64(-1)
		for _, p := range span {
			if int64(p) >= limit {
				return -1
			}
			a := recl[p]
			if a >= reqArea && (!useCaps || m.nodes[p].HasCaps(caps)) {
				return int64(p)
			}
			top = max(top, a)
		}
		blk.bound[keyRecl] = top
	}
	return -1
}

// alg1Steps is Algorithm 1's step count over the nodes before slot
// limit: each compatible node costs one step per entry, each
// incompatible node one step. Under a representable requirement a
// block wholly below limit is charged from its entry count (or its
// size, when its shard is incompatible), and only the block limit cuts
// is walked slot by slot; otherwise every member below limit is
// walked with the string test.
//
//dreamsim:noalloc
func (m *Manager) alg1Steps(req uint64, masked bool, caps []string, limit int64) uint64 {
	s := m.soa
	var steps int64
	for si := range s.shards {
		sh := &s.shards[si]
		compatible := sh.mask&req == req
		for b := range sh.blocks {
			span := sh.span(b)
			if int64(span[0]) >= limit {
				break
			}
			if masked && int64(span[len(span)-1]) < limit {
				if compatible {
					steps += sh.blocks[b].ents
				} else {
					steps += int64(len(span))
				}
				continue
			}
			for _, p := range span {
				if int64(p) >= limit {
					break
				}
				if !masked {
					compatible = m.nodes[p].HasCaps(caps)
				}
				if compatible {
					steps += int64(s.nent[p])
				} else {
					steps++
				}
			}
		}
	}
	return uint64(steps)
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
			if s.flags[p]&want == 0 || s.total[p] < cfg.ReqArea {
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
//
//lint:deadexport (c) test support: the resinfo and core tests check the manager's capability sharding through it
func (m *Manager) ShardCount() int { return len(m.soa.shards) }

// Deprecated: ClosePool does nothing; managers own no worker pool.
//
//lint:deadexport (a) benchsuite, a separate module, calls it
func (m *Manager) ClosePool() {}
