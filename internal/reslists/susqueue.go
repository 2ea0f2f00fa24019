package reslists

import (
	"fmt"
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
	// increasing along every list, so merging bucket cursors by lowest
	// seq reproduces FIFO order.
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
)

// walkCursor is one list a Walk draws candidates from: at is the
// next element not yet reached, or head once the list is exhausted.
type walkCursor struct {
	lvl    int
	head   int32
	at     int32
	bucket int // configuration bucket re-checked against the filter; -1 for none
}

// SusQueue is the suspension queue (the paper's SusList class): a
// FIFO of tasks the scheduler could not place immediately but that
// some busy node could eventually host. Tasks are retried whenever a
// node releases resources and removed when placed or discarded.
//
// Besides the global FIFO, the queue files every task in a bucket of
// its resolved configuration (one more bucket holds unresolved tasks),
// so a retry after a node release can visit only the tasks whose
// configuration the node could host while still metering the paper's
// full FIFO walk (see Walk).
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
	// cands is Walk's recycled cursor set.
	cands []walkCursor
}

// NewSusQueue returns an empty suspension queue without configuration
// buckets: every task is filed as unresolved, so walks follow the
// global FIFO. Use Reset to bucket by a configuration list.
func NewSusQueue() *SusQueue {
	q := &SusQueue{}
	q.Reset(nil)
	return q
}

// Reset empties the queue and buckets it by configs, which must be
// indexed by configuration number (configs[i].No == i); a task
// resolved to any other configuration is filed with the unresolved
// ones. The arena's backing array is kept, so a queue reused across
// runs stops allocating once it has reached its high-water depth.
func (q *SusQueue) Reset(configs []*model.Config) {
	q.cfgs = configs
	n := len(configs) + 2
	if cap(q.arena) < n {
		q.arena = make([]susElem, n)
	} else {
		clear(q.arena[:cap(q.arena)]) // drop the previous run's task pointers
		q.arena = q.arena[:n]
	}
	q.arena[0].next[lvlFIFO], q.arena[0].prev[lvlFIFO] = 0, 0
	for h := int32(1); h < int32(n); h++ {
		q.arena[h].next[lvlBucket], q.arena[h].prev[lvlBucket] = h, h
	}
	q.base = int32(n)
	q.free, q.size, q.peak, q.seq, q.walks = 0, 0, 0, 0, 0
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

// bucketHead returns the sentinel slot of the bucket cfg files into.
func (q *SusQueue) bucketHead(cfg *model.Config) int32 {
	if cfg != nil && cfg.No >= 0 && cfg.No < len(q.cfgs) && q.cfgs[cfg.No] == cfg {
		return int32(1 + cfg.No)
	}
	return int32(1 + len(q.cfgs)) // unresolved
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
	q.link(lvlBucket, q.bucketHead(task.Resolved), at)
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
	q.unlink(lvlBucket, at)
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

// refile re-links element at into its task's bucket, in seq order.
func (q *SusQueue) refile(at int32) {
	q.unlink(lvlBucket, at)
	head := q.bucketHead(q.arena[at].task.Resolved)
	after := q.arena[head].prev[lvlBucket]
	for after != head && q.arena[after].seq > q.arena[at].seq {
		after = q.arena[after].prev[lvlBucket]
	}
	q.link(lvlBucket, q.arena[after].next[lvlBucket], at)
}

// Reserve makes room in the arena for n more tasks, so a caller that
// knows how many it will add (a checkpoint restore) grows it at most
// once.
func (q *SusQueue) Reserve(n int) { q.arena = slices.Grow(q.arena, n) }

// alloc returns a free element slot, growing the arena on a miss.
func (q *SusQueue) alloc() int32 {
	if at := q.free; at != 0 {
		q.free = q.arena[at].next[lvlFIFO]
		return at
	}
	//lint:allocfree pool miss: the arena grows once per suspension-depth high-water mark and is reused across runs, amortized to zero in steady state
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

// credit brings the element's task.SusRetry up to date with the walks
// that reached it since the last credit.
func (q *SusQueue) credit(at int32) {
	el := &q.arena[at]
	el.task.SusRetry += int64(q.walks - el.walk)
	el.walk = q.walks
}

// Materialize brings every queued task's SusRetry up to date, e.g.
// before a checkpoint serializes them.
func (q *SusQueue) Materialize() {
	for at := q.arena[0].next[lvlFIFO]; at != 0; at = q.arena[at].next[lvlFIFO] {
		q.credit(at)
	}
}

// rebase credits every task and renumbers seq and the walk counter
// from zero, keeping FIFO order.
func (q *SusQueue) rebase() {
	var n uint32
	for at := q.arena[0].next[lvlFIFO]; at != 0; at = q.arena[at].next[lvlFIFO] {
		q.credit(at)
		n++
		q.arena[at].seq, q.arena[at].walk = n, 0
	}
	q.seq, q.walks = n, 0
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
// Materialize or its next visit brings it up to date.
//
// With every set, or while unresolved tasks are queued, visit sees
// every task the paper's walk reaches. Otherwise it sees only tasks
// whose resolved configuration passes fits (plus any unresolved task
// appended mid-walk), which must hold for every task visit would do
// anything for. The walk re-checks fits before each visit and drops
// the buckets that fail; it never takes one back, because fits must
// only ever turn false during one walk. The engine's filter asks
// whether the freed node could host a configuration, and every
// placement on that node consumes an idle region or fabric, so the
// set of configurations it could host only shrinks. Builds with
// -tags invariants assert this at the end of every walk.
//
// During a visit, visit may remove the visited task and append tasks,
// but must not remove any other task.
func (q *SusQueue) Walk(every bool, fits func(*model.Config) bool, visit func(*model.Task) bool) (steps uint64) {
	if q.size == 0 {
		return 0
	}
	if q.seq >= rebaseAt || q.walks >= rebaseAt {
		q.rebase()
	}
	q.walks++
	steps = uint64(q.size)

	unresolved := int32(1 + len(q.cfgs))
	filtered := !every && q.arena[unresolved].next[lvlBucket] == unresolved
	q.cands = q.cands[:0]
	if !filtered {
		q.cands = append(q.cands, walkCursor{lvl: lvlFIFO, head: 0, at: q.arena[0].next[lvlFIFO], bucket: -1})
	} else {
		for b, cfg := range q.cfgs {
			if fits(cfg) {
				head := int32(1 + b)
				q.cands = append(q.cands, walkCursor{lvl: lvlBucket, head: head, at: q.arena[head].next[lvlBucket], bucket: b})
			}
		}
		q.cands = append(q.cands, walkCursor{lvl: lvlBucket, head: unresolved, at: q.arena[unresolved].next[lvlBucket], bucket: -1})
	}

	var last uint32 // seq of the last visited task
	for {
		c := q.nextCursor(fits, last)
		if c == nil {
			break
		}
		at := c.at
		c.at = q.arena[at].next[c.lvl]
		last = q.arena[at].seq
		tail := q.arena[0].prev[lvlFIFO] == at
		seq0 := q.seq
		q.credit(at)
		task := q.arena[at].task
		was := task.Resolved
		more := visit(task)
		if task.Resolved != was && q.arena[at].seq == last { // still queued: keep its bucket current
			q.refile(at)
		}
		if !more || tail {
			break
		}
		// Tasks appended during a visit before the tail are reached by
		// the paper's walk: meter them and credit this walk to them.
		for t := q.arena[0].prev[lvlFIFO]; t != 0 && q.arena[t].seq > seq0; t = q.arena[t].prev[lvlFIFO] {
			q.arena[t].walk = q.walks - 1
			steps++
		}
	}
	if invariant.Enabled && filtered {
		q.assertDroppedStayDropped(fits)
	}
	return steps
}

// nextCursor returns the cursor holding the lowest-seq task not yet
// visited, or nil when none is left. It drops configuration buckets
// that no longer pass fits and picks up tasks appended to exhausted
// lists since the last visit (any task with seq above last).
func (q *SusQueue) nextCursor(fits func(*model.Config) bool, last uint32) *walkCursor {
	best := -1
	var bestSeq uint32
	for i := 0; i < len(q.cands); {
		c := &q.cands[i]
		if c.bucket >= 0 && !fits(q.cfgs[c.bucket]) {
			q.cands[i] = q.cands[len(q.cands)-1]
			q.cands = q.cands[:len(q.cands)-1]
			continue
		}
		if c.at == c.head {
			for t := q.arena[c.head].prev[c.lvl]; t != c.head && q.arena[t].seq > last; t = q.arena[t].prev[c.lvl] {
				c.at = t
			}
		}
		if c.at != c.head && (best < 0 || q.arena[c.at].seq < bestSeq) {
			best, bestSeq = i, q.arena[c.at].seq
		}
		i++
	}
	if best < 0 {
		return nil
	}
	return &q.cands[best]
}

// assertDroppedStayDropped checks, at the end of a filtered walk, that
// every configuration bucket outside the surviving cursor set still
// fails the filter: the candidate set only shrank.
func (q *SusQueue) assertDroppedStayDropped(fits func(*model.Config) bool) {
	for b, cfg := range q.cfgs {
		kept := false
		for _, c := range q.cands {
			kept = kept || c.bucket == b
		}
		invariant.Assertf(kept || !fits(cfg),
			"reslists: configuration C%d passed the retry filter after failing it in the same walk", cfg.No)
	}
}

// Tasks returns the queued tasks in FIFO order (for reports).
func (q *SusQueue) Tasks() []*model.Task {
	return q.AppendTasks(nil)
}

// AppendTasks appends the queued tasks in FIFO order to dst and
// returns the extended slice — the allocation-free form of Tasks for
// callers that recycle the backing array across passes.
//
//dreamsim:noalloc
func (q *SusQueue) AppendTasks(dst []*model.Task) []*model.Task {
	for at := q.arena[0].next[lvlFIFO]; at != 0; at = q.arena[at].next[lvlFIFO] {
		dst = append(dst, q.arena[at].task)
	}
	return dst
}

// CheckInvariants validates the global FIFO and every bucket: linkage,
// seq order, each element in the bucket of its task's resolved
// configuration, bucket sizes summing to Len, Task.SusSlot pointing
// back at its element, and no slot lost from the free chain.
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
			if task := q.arena[at].task; q.bucketHead(task.Resolved) != h {
				return fmt.Errorf("reslists: %v filed in suspension bucket %d", task, h-1)
			}
		}
		total += n
	}
	if total != q.size {
		return fmt.Errorf("reslists: suspension buckets hold %d tasks, queue %d", total, q.size)
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
