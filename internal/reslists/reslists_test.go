package reslists

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"dreamsim/internal/model"
)

func mkEntry(no int) *model.Entry {
	n := model.NewNode(no, 4000, true)
	cfg := &model.Config{No: no, ReqArea: 500, ConfigTime: 10}
	e, err := n.SendBitstream(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

func mkTask(no int) *model.Task {
	return model.NewTask(no, 500, no, 100, 0)
}

func collect(l *List) []*model.Entry {
	var out []*model.Entry
	l.Each(func(e *model.Entry) bool {
		out = append(out, e)
		return true
	})
	return out
}

func TestListAddRemove(t *testing.T) {
	l := NewList(Idle)
	if l.Len() != 0 || l.Head() != nil {
		t.Fatal("fresh list not empty")
	}
	e1, e2, e3 := mkEntry(1), mkEntry(2), mkEntry(3)
	l.Add(e1)
	l.Add(e2)
	l.Add(e3)
	if l.Len() != 3 || l.Head() != e3 {
		t.Fatalf("len=%d head=%v", l.Len(), l.Head())
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Remove middle.
	if !l.Remove(e2) {
		t.Fatal("Remove(e2) failed")
	}
	if l.Remove(e2) {
		t.Fatal("double Remove succeeded")
	}
	got := collect(l)
	if len(got) != 2 || got[0] != e3 || got[1] != e1 {
		t.Fatalf("after remove: %v", got)
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Remove head then tail.
	l.Remove(e3)
	l.Remove(e1)
	if l.Len() != 0 || l.Head() != nil {
		t.Fatal("list not empty after removing all")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestListDoubleInsertPanics(t *testing.T) {
	l := NewList(Busy)
	e := mkEntry(1)
	l.Add(e)
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	l.Add(e)
}

func TestIdleBusyHooksIndependent(t *testing.T) {
	idle := NewList(Idle)
	busy := NewList(Busy)
	e := mkEntry(1)
	idle.Add(e)
	busy.Add(e) // same entry may sit in one idle and one busy list
	if !e.InIdle || !e.InBusy {
		t.Fatal("hook flags not set")
	}
	if !idle.Remove(e) || !busy.Remove(e) {
		t.Fatal("removal failed")
	}
	if e.InIdle || e.InBusy {
		t.Fatal("hook flags not cleared")
	}
}

func TestEachStepsAndEarlyStop(t *testing.T) {
	l := NewList(Idle)
	for i := 0; i < 10; i++ {
		l.Add(mkEntry(i))
	}
	seen := 0
	steps := l.Each(func(*model.Entry) bool {
		seen++
		return seen < 4
	})
	if seen != 4 || steps != 4 {
		t.Fatalf("seen=%d steps=%d, want 4,4", seen, steps)
	}
	steps = l.Each(func(*model.Entry) bool { return true })
	if steps != 10 {
		t.Fatalf("full traversal steps=%d, want 10", steps)
	}
}

func TestFindMin(t *testing.T) {
	l := NewList(Idle)
	var entries []*model.Entry
	areas := []int64{900, 300, 700, 300, 500}
	for i, a := range areas {
		n := model.NewNode(i, 4000, true)
		e, _ := n.SendBitstream(&model.Config{No: i, ReqArea: 100})
		n.AvailableArea = a // directly set for the test key
		n.TotalArea = a + 100
		entries = append(entries, e)
		l.Add(e)
	}
	best, steps := l.FindMin(nil, func(e *model.Entry) int64 { return e.Node.AvailableArea })
	if best == nil || best.Node.AvailableArea != 300 {
		t.Fatalf("FindMin returned %v", best)
	}
	if steps != uint64(len(areas)) {
		t.Fatalf("FindMin steps=%d, want %d", steps, len(areas))
	}
	// Ties: first encountered in list order (list is LIFO of adds).
	if best != entries[3] {
		t.Fatalf("tie-break wrong: got node %d", best.Node.No)
	}
	// Filter that rejects everything.
	none, _ := l.FindMin(func(*model.Entry) bool { return false }, func(*model.Entry) int64 { return 0 })
	if none != nil {
		t.Fatalf("filtered FindMin returned %v", none)
	}
}

func TestFindMinEmptyList(t *testing.T) {
	l := NewList(Idle)
	best, steps := l.FindMin(nil, func(*model.Entry) int64 { return 0 })
	if best != nil || steps != 0 {
		t.Fatalf("empty FindMin: %v, %d", best, steps)
	}
}

func TestPairTransitions(t *testing.T) {
	p := NewPair()
	e := mkEntry(1)
	p.Idle.Add(e)
	steps := p.MarkBusy(e)
	if steps != 2 {
		t.Fatalf("MarkBusy steps=%d", steps)
	}
	if p.Idle.Len() != 0 || p.Busy.Len() != 1 {
		t.Fatal("MarkBusy did not move entry")
	}
	steps = p.MarkIdle(e)
	if steps != 2 {
		t.Fatalf("MarkIdle steps=%d", steps)
	}
	if p.Idle.Len() != 1 || p.Busy.Len() != 0 {
		t.Fatal("MarkIdle did not move entry")
	}
	if got := p.Drop(e); got != 1 {
		t.Fatalf("Drop steps=%d", got)
	}
	if p.Idle.Len() != 0 || p.Busy.Len() != 0 {
		t.Fatal("Drop left entry behind")
	}
	// MarkBusy on an unlisted entry still lands it in busy.
	p.MarkBusy(e)
	if p.Busy.Len() != 1 {
		t.Fatal("MarkBusy from nowhere failed")
	}
}

func TestKindString(t *testing.T) {
	if Idle.String() != "idle" || Busy.String() != "busy" {
		t.Fatal("Kind.String wrong")
	}
}

func TestSusQueueFIFO(t *testing.T) {
	q := NewSusQueue()
	if q.Len() != 0 || q.Peak() != 0 {
		t.Fatal("fresh queue not empty")
	}
	t1, t2, t3 := mkTask(1), mkTask(2), mkTask(3)
	q.Add(t1)
	q.Add(t2)
	q.Add(t3)
	if q.Len() != 3 || q.Peak() != 3 {
		t.Fatalf("len=%d peak=%d", q.Len(), q.Peak())
	}
	if t1.Status != model.TaskSuspended {
		t.Fatal("Add did not mark task suspended")
	}
	got := q.Tasks()
	if got[0] != t1 || got[1] != t2 || got[2] != t3 {
		t.Fatalf("FIFO order broken: %v", got)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSusQueueRemove(t *testing.T) {
	q := NewSusQueue()
	tasks := []*model.Task{mkTask(1), mkTask(2), mkTask(3), mkTask(4)}
	for _, task := range tasks {
		q.Add(task)
	}
	if !q.Remove(tasks[1]) || !q.Remove(tasks[3]) { // middle + tail
		t.Fatal("Remove failed")
	}
	if q.Remove(tasks[1]) {
		t.Fatal("double Remove succeeded")
	}
	if q.Len() != 2 {
		t.Fatalf("len=%d", q.Len())
	}
	got := q.Tasks()
	if got[0] != tasks[0] || got[1] != tasks[2] {
		t.Fatalf("remaining order: %v", got)
	}
	if !q.Remove(tasks[0]) { // head
		t.Fatal("head Remove failed")
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Peak survives removals.
	if q.Peak() != 4 {
		t.Fatalf("peak=%d, want 4", q.Peak())
	}
}

func TestSusQueueDoubleAddPanics(t *testing.T) {
	q := NewSusQueue()
	task := mkTask(1)
	q.Add(task)
	defer func() {
		if recover() == nil {
			t.Fatal("double Add did not panic")
		}
	}()
	q.Add(task)
}

func TestSusQueueWalkBumpsRetry(t *testing.T) {
	q := NewSusQueue()
	tasks := []*model.Task{mkTask(1), mkTask(2), mkTask(3)}
	for _, task := range tasks {
		q.Add(task)
	}
	steps := q.Walk(false, nil, func(task *model.Task) bool { return task.No != 2 })
	if steps != 3 {
		t.Fatalf("steps=%d, want 3 (the queue length at walk start)", steps)
	}
	q.Materialize()
	if tasks[0].SusRetry != 1 || tasks[1].SusRetry != 1 || tasks[2].SusRetry != 1 {
		t.Fatalf("retry counters: %d %d %d", tasks[0].SusRetry, tasks[1].SusRetry, tasks[2].SusRetry)
	}
}

func TestSusQueueWalkAllowsRemoval(t *testing.T) {
	q := NewSusQueue()
	tasks := []*model.Task{mkTask(1), mkTask(2), mkTask(3)}
	for _, task := range tasks {
		q.Add(task)
	}
	// Remove every visited task during traversal.
	var seen []int
	q.Walk(false, nil, func(task *model.Task) bool {
		seen = append(seen, task.No)
		q.Remove(task)
		return true
	})
	if q.Len() != 0 || len(seen) != 3 {
		t.Fatalf("queue not drained: %d left, visited %v", q.Len(), seen)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		if task.SusRetry != 1 || task.SusSlot != 0 {
			t.Fatalf("%v: SusRetry %d, SusSlot %d after removal", task, task.SusRetry, task.SusSlot)
		}
	}
}

// TestSusQueueWalkVisitsOnlyFittingBuckets pins the host-side saving:
// a filtered walk visits only tasks whose configuration passes the
// filter, in FIFO order, yet meters and credits the whole queue.
func TestSusQueueWalkVisitsOnlyFittingBuckets(t *testing.T) {
	cfgs := mkConfigs(3)
	q := NewSusQueue()
	q.Reset(cfgs)
	var tasks []*model.Task
	for i := 0; i < 9; i++ {
		task := mkTask(i)
		task.Resolved = cfgs[i%3]
		tasks = append(tasks, task)
		q.Add(task)
	}
	var seen []int
	steps := q.Walk(false, func(cfg *model.Config) bool { return cfg.No == 1 }, func(task *model.Task) bool {
		seen = append(seen, task.No)
		return true
	})
	if steps != 9 || len(seen) != 3 || seen[0] != 1 || seen[1] != 4 || seen[2] != 7 {
		t.Fatalf("steps %d, visited %v; want 9 steps visiting [1 4 7]", steps, seen)
	}
	if tasks[0].SusRetry != 0 || tasks[1].SusRetry != 1 {
		t.Fatalf("eager credit: unvisited %d, visited %d", tasks[0].SusRetry, tasks[1].SusRetry)
	}
	q.Materialize()
	for _, task := range tasks {
		if task.SusRetry != 1 {
			t.Fatalf("%v: SusRetry %d after materialize, want 1", task, task.SusRetry)
		}
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary interleavings of list add/remove keep linkage sane.
func TestQuickListOps(t *testing.T) {
	f := func(ops []uint8) bool {
		l := NewList(Idle)
		pool := make([]*model.Entry, 8)
		for i := range pool {
			pool[i] = mkEntry(i)
		}
		for _, op := range ops {
			e := pool[op%8]
			if op&0x80 != 0 {
				l.Remove(e)
			} else if !l.Contains(e) {
				l.Add(e)
			}
			if l.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func mkConfigs(n int) []*model.Config {
	cfgs := make([]*model.Config, n)
	for i := range cfgs {
		cfgs[i] = &model.Config{No: i, ReqArea: 500, ConfigTime: 10}
	}
	return cfgs
}

// refQueue is the reference model of the suspension queue: a plain
// slice in FIFO order walked exactly as the engine's original linked
// list was — every task the walk reaches is one step and one SusRetry,
// the next link is read before each visit, and the walk ends after
// visiting the task that was the tail when its visit began.
type refQueue struct{ tasks []*model.Task }

func (r *refQueue) index(task *model.Task) int {
	for i, x := range r.tasks {
		if x == task {
			return i
		}
	}
	return -1
}

func (r *refQueue) add(task *model.Task) { r.tasks = append(r.tasks, task) }

func (r *refQueue) remove(task *model.Task) bool {
	i := r.index(task)
	if i < 0 {
		return false
	}
	r.tasks = append(r.tasks[:i], r.tasks[i+1:]...)
	return true
}

func (r *refQueue) each(visit func(*model.Task) bool) (steps uint64) {
	if len(r.tasks) == 0 {
		return 0
	}
	for cur := r.tasks[0]; cur != nil; {
		var next *model.Task
		if i := r.index(cur); i+1 < len(r.tasks) {
			next = r.tasks[i+1]
		}
		steps++
		cur.SusRetry++
		if !visit(cur) {
			return steps
		}
		cur = next
	}
	return steps
}

// walkTwin is one side of the reference comparison: its own task
// structs, its filter and its record of what the walks did.
type walkTwin struct {
	tasks   []*model.Task
	fits    uint8 // bit c set: configuration c passes the filter
	rng     *rand.Rand
	visited []int
	steps   []uint64
}

// Property: under arbitrary interleavings of add, remove and walks —
// filtered or not, with filters that shrink mid-walk, visits that
// remove or re-append the visited task, append other tasks or change
// its resolved configuration — the queue keeps FIFO order and its
// invariants, and its walks visit the passing tasks in the reference
// walk's order with the reference step counts and SusRetry values.
func TestQuickSusQueueOrder(t *testing.T) {
	const nCfg, nTask = 4, 10
	f := func(ops []uint8, seed int64) bool {
		cfgs := mkConfigs(nCfg)
		q := NewSusQueue()
		q.Reset(cfgs)
		ref := &refQueue{}
		twins := [2]*walkTwin{}
		for i := range twins {
			tw := &walkTwin{rng: rand.New(rand.NewSource(seed))}
			for no := 0; no < nTask; no++ {
				task := mkTask(no)
				if no%5 != 0 { // every fifth task stays unresolved
					task.Resolved = cfgs[no%nCfg]
				}
				tw.tasks = append(tw.tasks, task)
			}
			twins[i] = tw
		}
		live, mirror := twins[0], twins[1]
		add := func(no int) {
			if !q.Contains(live.tasks[no]) {
				q.Add(live.tasks[no])
				ref.add(mirror.tasks[no])
			}
		}
		remove := func(no int) {
			if q.Remove(live.tasks[no]) != ref.remove(mirror.tasks[no]) {
				panic("membership diverged")
			}
		}
		// body is the engine-shaped visit: skip tasks whose resolved
		// configuration fails the filter, otherwise act at random. Both
		// twins draw from identically seeded streams, and only on
		// passing visits, so equal visit sequences act identically.
		body := func(tw *walkTwin, inQueue func(*model.Task) bool, rm func(int), ad func(int)) func(*model.Task) bool {
			return func(task *model.Task) bool {
				if task.Resolved != nil && tw.fits&(1<<task.Resolved.No) == 0 {
					return true
				}
				tw.visited = append(tw.visited, task.No)
				switch tw.rng.Intn(6) {
				case 0:
					rm(task.No)
				case 1:
					rm(task.No)
					ad(task.No)
				case 2:
					if u := tw.tasks[tw.rng.Intn(nTask)]; !inQueue(u) {
						ad(u.No)
					}
				case 3:
					tw.fits &^= 1 << tw.rng.Intn(nCfg)
				case 4:
					if c := tw.rng.Intn(nCfg + 1); c < nCfg {
						task.Resolved = cfgs[c]
					} else {
						task.Resolved = nil
					}
				}
				return true
			}
		}
		liveBody := body(live, q.Contains, func(no int) { q.Remove(live.tasks[no]) },
			func(no int) { q.Add(live.tasks[no]) })
		refBody := body(mirror, func(x *model.Task) bool { return ref.index(x) >= 0 },
			func(no int) { ref.remove(mirror.tasks[no]) }, func(no int) { ref.add(mirror.tasks[no]) })

		for _, op := range ops {
			no := int(op) % nTask
			switch {
			case op&0xC0 == 0xC0: // walk
				every := op&0x20 != 0
				mask := uint8(op>>1) & (1<<nCfg - 1)
				live.fits, mirror.fits = mask, mask
				live.steps = append(live.steps, q.Walk(every, func(cfg *model.Config) bool {
					return live.fits&(1<<cfg.No) != 0
				}, liveBody))
				mirror.steps = append(mirror.steps, ref.each(refBody))
			case op&0x80 != 0:
				remove(no)
			default:
				add(no)
			}
			if err := q.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
		}
		q.Materialize()
		if !slices.Equal(live.visited, mirror.visited) || !slices.Equal(live.steps, mirror.steps) {
			return false
		}
		got := q.Tasks()
		if len(got) != len(ref.tasks) {
			return false
		}
		for i := range got {
			if got[i].No != ref.tasks[i].No {
				return false
			}
		}
		for no := range live.tasks {
			if live.tasks[no].SusRetry != mirror.tasks[no].SusRetry {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func BenchmarkListAddRemove(b *testing.B) {
	l := NewList(Idle)
	entries := make([]*model.Entry, 128)
	for i := range entries {
		entries[i] = mkEntry(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := entries[i%128]
		if l.Contains(e) {
			l.Remove(e)
		} else {
			l.Add(e)
		}
	}
}

// TestSusQueueSteadyStateZeroAlloc pins the element arena: add,
// filtered-walk and remove churn at a warmed depth must reuse arena
// slots instead of allocating one element per suspension.
func TestSusQueueSteadyStateZeroAlloc(t *testing.T) {
	cfgs := mkConfigs(2)
	q := NewSusQueue()
	q.Reset(cfgs)
	tasks := []*model.Task{mkTask(1), mkTask(2), mkTask(3)}
	for i, task := range tasks {
		task.Resolved = cfgs[i%2]
	}
	churn := func() {
		for _, task := range tasks {
			q.Add(task)
		}
		q.Walk(false, func(cfg *model.Config) bool { return cfg.No == 0 }, func(task *model.Task) bool {
			q.Remove(task)
			return true
		})
		for _, task := range tasks {
			q.Remove(task)
		}
	}
	churn() // warm the arena and the walk's cursor set to depth 3
	if allocs := testing.AllocsPerRun(500, churn); allocs != 0 {
		t.Fatalf("steady-state suspend/retry churn allocates %v allocs/op, want 0", allocs)
	}
}

// TestSusQueueAppendTasks pins the recycled-snapshot form used by the
// drain loop: FIFO order into a reused backing array, no allocation
// once the array fits the queue.
func TestSusQueueAppendTasks(t *testing.T) {
	q := NewSusQueue()
	tasks := []*model.Task{mkTask(1), mkTask(2), mkTask(3)}
	for _, task := range tasks {
		q.Add(task)
	}
	scratch := q.AppendTasks(nil)
	if len(scratch) != 3 || scratch[0] != tasks[0] || scratch[1] != tasks[1] || scratch[2] != tasks[2] {
		t.Fatalf("AppendTasks order: %v", scratch)
	}
	allocs := testing.AllocsPerRun(100, func() {
		scratch = q.AppendTasks(scratch[:0])
	})
	if allocs != 0 {
		t.Fatalf("AppendTasks into a fitting array allocates %v allocs/op, want 0", allocs)
	}
	if got := q.Tasks(); len(got) != 3 {
		t.Fatalf("Tasks after AppendTasks: %v", got)
	}
}
