package reslists

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dreamsim/internal/invariant"
	"dreamsim/internal/model"
)

// susElem is one arena slot of the suspension queue. Every element
// sits on two doubly linked lists at once: level 0 is the global FIFO,
// level 1 the FIFO bucket of the task's resolved configuration. Links
// are arena indices, so the arena can grow (and be reused across runs)
// without invalidating them; index 0 is the global list's sentinel and
// the next len(configs)+1 slots are the bucket sentinels, so a zero
// Task.SusSlot always means "not queued".
type susElem struct {
	task       *model.Task
	next, prev [2]int32
	// seq is the element's position in the global FIFO: strictly
	// increasing along every list, so the lowest seq among the bucket
	// fronts is the next task in FIFO order. A bucket sentinel holds
	// noSeq, so an empty front sorts last.
	seq uint32
	// walk is the walk counter value already credited to
	// task.SusRetry (see credit).
	walk uint32
}

const (
	lvlFIFO   = 0
	lvlBucket = 1
	// rebaseAt bounds seq and the walk counter: a walk that starts
	// with either at or beyond it first renumbers the queue, leaving
	// 2^31 appends of headroom before the next walk.
	rebaseAt = 1 << 31
	// noSeq is a bucket sentinel's seq: a front at the sentinel means
	// the bucket has no front.
	noSeq = math.MaxUint32
)

// Filter is what a released node can offer a filtered Walk: a task
// fits if its configuration needs at most Area, or if the node holds
// an idle region of it (Idle lists those configuration numbers). A
// walk re-reads the filter before each visit, and it may only shrink
// during one walk.
type Filter struct {
	Area model.Area
	Idle []int
}

// Fits reports whether a task resolved to cfg could land on the node.
func (f *Filter) Fits(cfg *model.Config) bool {
	if cfg.ReqArea <= f.Area {
		return true
	}
	for _, no := range f.Idle {
		if no == cfg.No {
			return true
		}
	}
	return false
}

// SusQueue is the suspension queue (the paper's SusList class): a
// FIFO of tasks the scheduler could not place immediately but that
// some busy node could eventually host. Tasks are retried whenever a
// node releases resources and removed when placed or discarded.
//
// Besides the global FIFO, the queue files every task in a bucket of
// its resolved configuration (one more bucket, numbered len(configs),
// holds unresolved tasks), so a retry after a node release can visit
// only the tasks whose configuration the node could host while still
// metering the paper's full FIFO walk (see Walk).
type SusQueue struct {
	arena []susElem
	cfgs  []*model.Config // bucket b holds tasks resolved to cfgs[b]
	base  int32           // first element slot (after the sentinels)
	free  int32           // head of the free-slot chain (via next[0]); 0 when empty
	size  int
	// peak tracks the maximum depth reached, for reporting.
	peak  int
	seq   uint32
	walks uint32

	// The retry index. front[b] is bucket b's front: its head outside
	// a walk, its first task above floor during a filtered walk, and
	// its sentinel (slot 1+b) when it has none. The configuration
	// buckets are ranked by ReqArea (areas[r] is the r-th smallest,
	// rank[b] is bucket b's rank), and tree is a range minimum over
	// their fronts' keys in rank order, leaves at tree[len(cfgs):].
	front []int32
	rank  []int32
	areas []model.Area
	tree  []uint64
	// floor is the seq of the task a filtered walk visited last (0
	// outside one); moved lists the buckets whose front that walk
	// moved off their head.
	floor uint32
	moved []int32
}

// Reset empties the queue and buckets it by configs, which must be
// indexed by configuration number (configs[i].No == i); a task
// resolved to any other configuration is filed with the unresolved
// ones. The backing arrays are kept, so a queue reused across runs
// stops allocating once it has reached its high-water depth.
func (q *SusQueue) Reset(configs []*model.Config) {
	q.cfgs = configs
	c := len(configs)
	n := c + 2
	if cap(q.arena) < n {
		q.arena = make([]susElem, n)
	} else {
		clear(q.arena[:cap(q.arena)]) // drop the previous run's task pointers
		q.arena = q.arena[:n]
	}
	q.arena[0].next[lvlFIFO], q.arena[0].prev[lvlFIFO] = 0, 0
	for h := int32(1); h < int32(n); h++ {
		q.arena[h].next[lvlBucket], q.arena[h].prev[lvlBucket] = h, h
		q.arena[h].seq = noSeq
	}
	q.base = int32(n)
	q.free, q.size, q.peak, q.seq, q.walks = 0, 0, 0, 0, 0

	// Rank the configuration buckets by area, sorting their numbers
	// in front's storage before it is filled.
	q.front = slices.Grow(q.front[:0], c+1)[:c+1]
	order := q.front[:c]
	for b := range order {
		order[b] = int32(b)
	}
	slices.SortStableFunc(order, func(x, y int32) int {
		return cmp.Compare(configs[x].ReqArea, configs[y].ReqArea)
	})
	q.rank = slices.Grow(q.rank[:0], c)[:c]
	q.areas = slices.Grow(q.areas[:0], c)[:c]
	for r, b := range order {
		q.rank[b] = int32(r)
		q.areas[r] = configs[b].ReqArea
	}
	for b := range q.front {
		q.front[b] = int32(1 + b)
	}
	q.tree = slices.Grow(q.tree[:0], 2*c)[:2*c]
	q.rekey()
	q.floor, q.moved = 0, q.moved[:0]
}

// Len returns the number of suspended tasks.
func (q *SusQueue) Len() int { return q.size }

// Peak returns the maximum queue depth observed.
func (q *SusQueue) Peak() int { return q.peak }

// Contains reports whether task is queued.
func (q *SusQueue) Contains(task *model.Task) bool {
	at := task.SusSlot
	return at >= q.base && int(at) < len(q.arena) && q.arena[at].task == task
}

// bucketOf returns the bucket cfg files into.
func (q *SusQueue) bucketOf(cfg *model.Config) int32 {
	if cfg != nil && cfg.No >= 0 && cfg.No < len(q.cfgs) && q.cfgs[cfg.No] == cfg {
		return int32(cfg.No)
	}
	return int32(len(q.cfgs)) // unresolved
}

// Add appends task at the tail (the paper's AddTaskToSusQueue) and
// marks it suspended. It panics on double insertion.
func (q *SusQueue) Add(task *model.Task) {
	if q.Contains(task) {
		panic(fmt.Sprintf("reslists: suspension queue double insert of %v", task))
	}
	if invariant.Enabled {
		invariant.Assertf(q.seq < 1<<32-1, "reslists: suspension queue sequence overflow")
	}
	at := q.alloc()
	q.seq++
	q.arena[at] = susElem{task: task, seq: q.seq, walk: q.walks}
	q.link(lvlFIFO, 0, at)
	b := q.bucketOf(task.Resolved)
	q.link(lvlBucket, 1+b, at)
	if q.front[b] == 1+b { // the newest task is above any walk's floor
		q.setFront(b, at)
	}
	task.SusSlot = at
	q.size++
	if q.size > q.peak {
		q.peak = q.size
	}
	task.Status = model.TaskSuspended
}

// Remove unlinks task (the paper's RemoveTaskFromSusQueue); it
// reports whether the task was queued. The task's SusRetry is brought
// up to date first. The caller decides the task's next status.
func (q *SusQueue) Remove(task *model.Task) bool {
	if !q.Contains(task) {
		return false
	}
	at := task.SusSlot
	q.credit(at)
	q.unlink(lvlFIFO, at)
	q.unfile(at)
	q.arena[at] = susElem{next: [2]int32{q.free, 0}}
	q.free = at
	task.SusSlot = 0
	q.size--
	return true
}

// Refile moves a queued task to the bucket of its current resolved
// configuration after a policy call changed it from was. The engine
// calls it wherever a policy decides on a task that stays queued; Walk
// does so itself.
func (q *SusQueue) Refile(task *model.Task, was *model.Config) {
	if task.Resolved != was && q.Contains(task) {
		q.refile(task.SusSlot)
	}
}

// refile re-links element at into its task's bucket, in seq order. It
// becomes the bucket's front if it precedes the front and lies above
// the floor; a walk has passed every task at or below its floor.
func (q *SusQueue) refile(at int32) {
	q.unfile(at)
	b := q.bucketOf(q.arena[at].task.Resolved)
	head := 1 + b
	seq := q.arena[at].seq
	after := q.arena[head].prev[lvlBucket]
	for after != head && q.arena[after].seq > seq {
		after = q.arena[after].prev[lvlBucket]
	}
	q.link(lvlBucket, q.arena[after].next[lvlBucket], at)
	switch {
	case seq > q.floor && seq < q.arena[q.front[b]].seq:
		q.setFront(b, at)
	case after == head: // a new head the walk passed: reset its front when the walk ends
		q.moved = append(q.moved, b)
	}
}

// unfile unlinks element at from its bucket, moving the bucket's front
// past it. A front is only ever unlinked while it is its bucket's head
// (a walk moves a front off the task it visits), so the sentinel
// before it names the bucket.
func (q *SusQueue) unfile(at int32) {
	if h := q.arena[at].prev[lvlBucket]; h < q.base && q.front[h-1] == at {
		q.setFront(h-1, q.arena[at].next[lvlBucket])
	}
	q.unlink(lvlBucket, at)
}

// Reserve makes room in the arena for n more tasks and a quarter as
// many again, so a caller that knows how many it will add (a
// checkpoint restore) grows it at most once, and the suspensions that
// follow do not copy the whole arena at once.
func (q *SusQueue) Reserve(n int) { q.arena = slices.Grow(q.arena, n+n/4) }

// alloc returns a free element slot, growing the arena on a miss. A
// full arena doubles: over its growth steps, append's 1.25x step for
// large slices allocates about five slots per slot of depth reached,
// doubling about two.
func (q *SusQueue) alloc() int32 {
	if at := q.free; at != 0 {
		q.free = q.arena[at].next[lvlFIFO]
		return at
	}
	if len(q.arena) == cap(q.arena) {
		q.arena = slices.Grow(q.arena, len(q.arena))
	}
	q.arena = append(q.arena, susElem{})
	return int32(len(q.arena) - 1)
}

// link inserts element at before slot before on list lvl (before the
// sentinel head means at the tail).
func (q *SusQueue) link(lvl int, before, at int32) {
	prev := q.arena[before].prev[lvl]
	q.arena[at].prev[lvl], q.arena[at].next[lvl] = prev, before
	q.arena[prev].next[lvl] = at
	q.arena[before].prev[lvl] = at
}

// unlink removes element at from list lvl.
func (q *SusQueue) unlink(lvl int, at int32) {
	prev, next := q.arena[at].prev[lvl], q.arena[at].next[lvl]
	q.arena[prev].next[lvl] = next
	q.arena[next].prev[lvl] = prev
}

// key is bucket b's entry in the range minimum: its front's seq above
// the bucket number, so the least key names the bucket holding the
// lowest-seq front.
func (q *SusQueue) key(b int32) uint64 {
	return uint64(q.arena[q.front[b]].seq)<<32 | uint64(b)
}

// setFront makes at (one of bucket b's elements, or its sentinel for
// none) the bucket's front and updates the range minimum.
func (q *SusQueue) setFront(b, at int32) {
	q.front[b] = at
	c := len(q.cfgs)
	if int(b) == c {
		return // the unresolved bucket is outside the tree
	}
	i := c + int(q.rank[b])
	q.tree[i] = q.key(b)
	for ; i > 1; i >>= 1 {
		q.tree[i>>1] = min(q.tree[i], q.tree[i^1])
	}
}

// rekey rebuilds the range minimum from the fronts.
func (q *SusQueue) rekey() {
	c := len(q.cfgs)
	for b := range q.rank {
		q.tree[c+int(q.rank[b])] = q.key(int32(b))
	}
	for i := c - 1; i > 0; i-- {
		q.tree[i] = min(q.tree[2*i], q.tree[2*i+1])
	}
}

// minBelow returns the least key among the configuration buckets
// ranked below k, or math.MaxUint64 when there are none.
func (q *SusQueue) minBelow(k int) uint64 {
	best := uint64(math.MaxUint64)
	for l, r := len(q.cfgs), len(q.cfgs)+k; l < r; l, r = l>>1, r>>1 {
		if l&1 == 1 {
			best = min(best, q.tree[l])
			l++
		}
		if r&1 == 1 {
			r--
			best = min(best, q.tree[r])
		}
	}
	return best
}

// fitting returns how many configuration buckets need at most area.
func (q *SusQueue) fitting(area model.Area) int {
	lo, hi := 0, len(q.areas)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.areas[mid] <= area {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// nextBucket returns the bucket whose front is the lowest-seq task
// that f admits or that is unresolved, or -1 when there is none: the
// least of the range minimum over the buckets that fit f.Area, the
// fronts of f's idle configurations beyond them, and the unresolved
// bucket's front.
func (q *SusQueue) nextBucket(f *Filter) int32 {
	c := len(q.cfgs)
	k := q.fitting(f.Area)
	best := min(q.minBelow(k), q.key(int32(c)))
	for _, no := range f.Idle {
		if no >= 0 && no < c && int(q.rank[no]) >= k {
			best = min(best, q.key(int32(no)))
		}
	}
	if best>>32 == noSeq {
		return -1
	}
	return int32(uint32(best))
}

// credit brings the element's task.SusRetry up to date with the walks
// that reached it since the last credit.
func (q *SusQueue) credit(at int32) {
	el := &q.arena[at]
	el.task.SusRetry += int64(q.walks - el.walk)
	el.walk = q.walks
}

// Each calls visit on every queued task in FIFO order, first bringing
// the task's SusRetry up to date, so a checkpoint serializes the queue
// in one pass. visit must not add or remove tasks.
func (q *SusQueue) Each(visit func(*model.Task)) {
	for at := q.arena[0].next[lvlFIFO]; at != 0; at = q.arena[at].next[lvlFIFO] {
		q.credit(at)
		visit(q.arena[at].task)
	}
}

// rebase credits every task and renumbers seq and the walk counter
// from zero, keeping FIFO order, then re-keys the range minimum.
func (q *SusQueue) rebase() {
	var n uint32
	for at := q.arena[0].next[lvlFIFO]; at != 0; at = q.arena[at].next[lvlFIFO] {
		q.credit(at)
		n++
		q.arena[at].seq, q.arena[at].walk = n, 0
	}
	q.seq, q.walks = n, 0
	q.rekey()
}

// Walk is the retry examination after a node released resources (the
// paper's SearchSusQueue). It visits queued tasks in FIFO order,
// calling visit until it returns false, and returns the number of
// queue links the paper's walk explores: every task queued when the
// walk starts, plus every task appended during a visit that the walk
// has not yet passed the tail of (the walk reads the next link before
// each visit, so a task appended while the tail is visited is not
// reached). Each of those tasks is one retry examination: its SusRetry
// grows by one, lazily — a queued task's field may lag until Remove,
// Each or its next visit brings it up to date.
//
// With every set, or while unresolved tasks are queued, visit sees
// every task the paper's walk reaches. Otherwise it sees only tasks
// whose resolved configuration f fits (plus any unresolved task
// appended mid-walk), which must hold for every task visit would do
// anything for. The walk re-reads f before each visit and takes the
// next task from the bucket fronts f admits. f must only shrink during
// one walk: a bucket f admits again after dropping it would still have
// its front at a task the walk passed. The engine's filter says what
// the freed node could host, and every placement on that node consumes
// an idle region or fabric, so it only shrinks. Builds with -tags
// invariants assert that the visited seq rises.
//
// During a visit, visit may remove the visited task and append tasks,
// but must not remove any other task.
func (q *SusQueue) Walk(every bool, f *Filter, visit func(*model.Task) bool) (steps uint64) {
	if q.size == 0 {
		return 0
	}
	if q.seq >= rebaseAt || q.walks >= rebaseAt {
		q.rebase()
	}
	q.walks++
	steps = uint64(q.size)

	unresolved := int32(len(q.cfgs))
	filtered := !every && q.front[unresolved] == 1+unresolved
	at := q.arena[0].next[lvlFIFO]
	var last uint32 // seq of the last visited task
	for {
		if filtered {
			b := q.nextBucket(f)
			if b < 0 {
				break
			}
			at = q.front[b]
			if q.arena[1+b].next[lvlBucket] == at {
				q.moved = append(q.moved, b)
			}
			q.setFront(b, q.arena[at].next[lvlBucket])
			q.floor = q.arena[at].seq
		}
		if invariant.Enabled && q.arena[at].seq <= last {
			invariant.Assertf(false, "reslists: retry walk visited seq %d after %d: the filter admitted a bucket it had dropped",
				q.arena[at].seq, last)
		}
		last = q.arena[at].seq
		next := q.arena[at].next[lvlFIFO]
		seq0 := q.seq
		q.credit(at)
		task := q.arena[at].task
		was := task.Resolved
		more := visit(task)
		if task.Resolved != was && q.arena[at].seq == last { // still queued: keep its bucket current
			q.refile(at)
		}
		if !more || next == 0 { // stopped, or visited the tail
			break
		}
		// Tasks appended during a visit before the tail are reached by
		// the paper's walk: meter them and credit this walk to them.
		for t := q.arena[0].prev[lvlFIFO]; t != 0 && q.arena[t].seq > seq0; t = q.arena[t].prev[lvlFIFO] {
			q.arena[t].walk = q.walks - 1
			steps++
		}
		at = next
	}
	if filtered {
		for _, b := range q.moved {
			if head := q.arena[1+b].next[lvlBucket]; q.front[b] != head {
				q.setFront(b, head)
			}
		}
		q.floor, q.moved = 0, q.moved[:0]
	}
	return steps
}

// AppendTasks appends the queued tasks in FIFO order to dst and
// returns the extended slice; callers that recycle the backing array
// across passes allocate nothing.
func (q *SusQueue) AppendTasks(dst []*model.Task) []*model.Task {
	for at := q.arena[0].next[lvlFIFO]; at != 0; at = q.arena[at].next[lvlFIFO] {
		dst = append(dst, q.arena[at].task)
	}
	return dst
}

// CheckInvariants validates, outside walks, the global FIFO and every
// bucket: linkage, seq order, each element in the bucket of its task's
// resolved configuration, bucket sizes summing to Len, Task.SusSlot
// pointing back at its element, and no slot lost from the free chain;
// and the retry index: every front is its bucket's head, every tree
// leaf holds its bucket's key and every tree node the minimum of its
// children.
func (q *SusQueue) CheckInvariants() error {
	tail, n, err := q.checkList(lvlFIFO, 0, q.size)
	if err != nil {
		return err
	}
	if n != q.size {
		return fmt.Errorf("reslists: suspension queue size %d, chain %d", q.size, n)
	}
	if q.arena[0].prev[lvlFIFO] != tail {
		return fmt.Errorf("reslists: suspension queue tail mismatch")
	}
	total := 0
	for h := int32(1); h < q.base; h++ {
		tail, n, err := q.checkList(lvlBucket, h, q.size-total)
		if err != nil {
			return err
		}
		if q.arena[h].prev[lvlBucket] != tail {
			return fmt.Errorf("reslists: suspension bucket %d tail mismatch", h-1)
		}
		for at := q.arena[h].next[lvlBucket]; at != h; at = q.arena[at].next[lvlBucket] {
			if task := q.arena[at].task; 1+q.bucketOf(task.Resolved) != h {
				return fmt.Errorf("reslists: %v filed in suspension bucket %d", task, h-1)
			}
		}
		if q.front[h-1] != q.arena[h].next[lvlBucket] {
			return fmt.Errorf("reslists: suspension bucket %d front is slot %d, not its head", h-1, q.front[h-1])
		}
		total += n
	}
	if total != q.size {
		return fmt.Errorf("reslists: suspension buckets hold %d tasks, queue %d", total, q.size)
	}
	c := len(q.cfgs)
	for b, r := range q.rank {
		if q.tree[c+int(r)] != q.key(int32(b)) {
			return fmt.Errorf("reslists: suspension index leaf of bucket %d is stale", b)
		}
	}
	for i := c - 1; i > 0; i-- {
		if q.tree[i] != min(q.tree[2*i], q.tree[2*i+1]) {
			return fmt.Errorf("reslists: suspension index node %d is not the minimum of its children", i)
		}
	}
	free := 0
	for at := q.free; at != 0; at = q.arena[at].next[lvlFIFO] {
		if free++; at < q.base || int(at) >= len(q.arena) || q.arena[at].task != nil {
			return fmt.Errorf("reslists: suspension queue free chain holds slot %d", at)
		}
		if free > len(q.arena) {
			return fmt.Errorf("reslists: suspension queue free chain cycle")
		}
	}
	if int(q.base)+q.size+free != len(q.arena) {
		return fmt.Errorf("reslists: suspension queue arena %d slots, %d sentinels + %d queued + %d free",
			len(q.arena), q.base, q.size, free)
	}
	return nil
}

// checkList walks list lvl from sentinel head, validating back links,
// element slots, SusSlot round trips and strictly increasing seq, and
// returns its last element and length; max bounds the length.
func (q *SusQueue) checkList(lvl int, head int32, max int) (tail int32, n int, err error) {
	tail = head
	var seq uint32
	for at := q.arena[head].next[lvl]; at != head; at = q.arena[at].next[lvl] {
		if n++; n > max {
			return 0, 0, fmt.Errorf("reslists: suspension list %d/%d cycle or size drift", lvl, head)
		}
		if at < q.base || int(at) >= len(q.arena) {
			return 0, 0, fmt.Errorf("reslists: suspension list %d/%d links slot %d", lvl, head, at)
		}
		el := &q.arena[at]
		if el.prev[lvl] != tail {
			return 0, 0, fmt.Errorf("reslists: suspension queue back-pointer mismatch at %v", el.task)
		}
		if el.task == nil || el.task.SusSlot != at {
			return 0, 0, fmt.Errorf("reslists: suspension queue slot %d does not round-trip", at)
		}
		if el.seq <= seq {
			return 0, 0, fmt.Errorf("reslists: suspension list %d/%d out of FIFO order at %v", lvl, head, el.task)
		}
		tail, seq = at, el.seq
	}
	return tail, n, nil
}
