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
	l := new(List)
	if l.Len() != 0 || len(collect(l)) != 0 {
		t.Fatal("fresh list not empty")
	}
	e1, e2, e3 := mkEntry(1), mkEntry(2), mkEntry(3)
	l.Add(e1)
	l.Add(e2)
	l.Add(e3)
	if got := collect(l); l.Len() != 3 || got[0] != e3 {
		t.Fatalf("len=%d list=%v", l.Len(), got)
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
	if l.Len() != 0 || len(collect(l)) != 0 {
		t.Fatal("list not empty after removing all")
	}
	if err := l.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestListDoubleInsertPanics(t *testing.T) {
	l := new(List)
	e := mkEntry(1)
	l.Add(e)
	defer func() {
		if recover() == nil {
			t.Fatal("double insert did not panic")
		}
	}()
	l.Add(e)
}

func TestEachStepsAndEarlyStop(t *testing.T) {
	l := new(List)
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

// fitScans pairs each closure-free scan with the order it minimises:
// better(a, b) reports whether a strictly beats b.
var fitScans = []struct {
	name   string
	scan   func(*List) (*model.Entry, uint64)
	better func(a, b *model.Entry) bool
}{
	{"BestFit", (*List).BestFit, func(a, b *model.Entry) bool {
		return a.Node.AvailableArea < b.Node.AvailableArea
	}},
	{"WorstFit", (*List).WorstFit, func(a, b *model.Entry) bool {
		return a.Node.AvailableArea > b.Node.AvailableArea
	}},
	{"BestFitBalanced", (*List).BestFitBalanced, func(a, b *model.Entry) bool {
		if a.Node.AvailableArea != b.Node.AvailableArea {
			return a.Node.AvailableArea < b.Node.AvailableArea
		}
		return a.Node.RunningTasks() < b.Node.RunningTasks()
	}},
}

// TestFitScansMatchReference builds random idle lists whose nodes tie
// often on AvailableArea and on their running-task count, and checks
// each scan against a plain walk of a slice kept in list order: the
// first strict minimum in list order wins, and the steps are the
// list's length. The slice is kept by the test itself (Add puts an
// entry at the head), not read back from the list.
func TestFitScansMatchReference(t *testing.T) {
	for _, sc := range fitScans {
		if got, steps := sc.scan(new(List)); got != nil || steps != 0 {
			t.Fatalf("%s on an empty list: %v, %d steps", sc.name, got, steps)
		}
	}
	r := rand.New(rand.NewSource(1))
	for round := 0; round < 500; round++ {
		l := new(List)
		var order []*model.Entry // the list's order, head first
		nodes := make([]*model.Node, 1+r.Intn(12))
		for i := range nodes {
			n := model.NewNode(i, 1<<20, true)
			// Busy regions set the node's running-task count: 0, 1 or 2.
			for k := r.Intn(3); k > 0; k-- {
				e, err := n.SendBitstream(&model.Config{No: 100 + k, ReqArea: 10})
				if err != nil {
					t.Fatal(err)
				}
				e.Task = mkTask(k)
			}
			nodes[i] = n
		}
		for k := r.Intn(25); k > 0; k-- {
			// Some nodes hold several idle regions of the configuration.
			e, err := nodes[r.Intn(len(nodes))].SendBitstream(&model.Config{No: 7, ReqArea: 10})
			if err != nil {
				t.Fatal(err)
			}
			l.Add(e)
			order = slices.Insert(order, 0, e)
			if r.Intn(5) == 0 {
				gone := order[r.Intn(len(order))]
				l.Remove(gone)
				order = slices.DeleteFunc(order, func(e *model.Entry) bool { return e == gone })
			}
		}
		for _, n := range nodes {
			n.AvailableArea = int64(300 * r.Intn(3)) // set for the test: many ties
		}
		for _, sc := range fitScans {
			var want *model.Entry
			for _, e := range order {
				if want == nil || sc.better(e, want) {
					want = e
				}
			}
			got, steps := sc.scan(l)
			if got != want {
				t.Fatalf("round %d: %s picked %v (position %d), want %v (position %d) of %d",
					round, sc.name, got, slices.Index(order, got), want, slices.Index(order, want), len(order))
			}
			if steps != uint64(len(order)) {
				t.Fatalf("round %d: %s charged %d steps for a list of %d", round, sc.name, steps, len(order))
			}
		}
	}
}

func TestSusQueueFIFO(t *testing.T) {
	q := new(SusQueue)
	q.Reset(nil)
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
	got := q.AppendTasks(nil)
	if got[0] != t1 || got[1] != t2 || got[2] != t3 {
		t.Fatalf("FIFO order broken: %v", got)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSusQueueRemove(t *testing.T) {
	q := new(SusQueue)
	q.Reset(nil)
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
	got := q.AppendTasks(nil)
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
	q := new(SusQueue)
	q.Reset(nil)
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
	q := new(SusQueue)
	q.Reset(nil)
	tasks := []*model.Task{mkTask(1), mkTask(2), mkTask(3)}
	for _, task := range tasks {
		q.Add(task)
	}
	steps := q.Walk(false, nil, func(task *model.Task) bool { return task.No != 2 })
	if steps != 3 {
		t.Fatalf("steps=%d, want 3 (the queue length at walk start)", steps)
	}
	q.Each(func(*model.Task) {})
	if tasks[0].SusRetry != 1 || tasks[1].SusRetry != 1 || tasks[2].SusRetry != 1 {
		t.Fatalf("retry counters: %d %d %d", tasks[0].SusRetry, tasks[1].SusRetry, tasks[2].SusRetry)
	}
}

func TestSusQueueWalkAllowsRemoval(t *testing.T) {
	q := new(SusQueue)
	q.Reset(nil)
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
// filter, by area or by an idle region, in FIFO order, yet meters and
// credits the whole queue.
func TestSusQueueWalkVisitsOnlyFittingBuckets(t *testing.T) {
	cfgs := mkConfigs(3) // areas 300, 200, 100
	for _, tc := range []struct {
		name string
		f    Filter
		want []int
	}{
		{"idle", Filter{Idle: []int{1}}, []int{1, 4, 7}},
		{"area", Filter{Area: 250}, []int{1, 2, 4, 5, 7, 8}},
		{"area and idle", Filter{Area: 150, Idle: []int{0}}, []int{0, 2, 3, 5, 6, 8}},
	} {
		q := new(SusQueue)
		q.Reset(cfgs)
		var tasks []*model.Task
		for i := 0; i < 9; i++ {
			task := mkTask(i)
			task.Resolved = cfgs[i%3]
			tasks = append(tasks, task)
			q.Add(task)
		}
		var seen []int
		steps := q.Walk(false, &tc.f, func(task *model.Task) bool {
			seen = append(seen, task.No)
			return true
		})
		if steps != 9 || !slices.Equal(seen, tc.want) {
			t.Fatalf("%s: steps %d, visited %v; want 9 steps visiting %v", tc.name, steps, seen, tc.want)
		}
		for _, task := range tasks {
			want := int64(0)
			if slices.Contains(tc.want, task.No) {
				want = 1 // only visited tasks are credited eagerly
			}
			if task.SusRetry != want {
				t.Fatalf("%s: %v: SusRetry %d before the crediting walk, want %d", tc.name, task, task.SusRetry, want)
			}
		}
		q.Each(func(*model.Task) {})
		for _, task := range tasks {
			if task.SusRetry != 1 {
				t.Fatalf("%s: %v: SusRetry %d after the crediting walk, want 1", tc.name, task, task.SusRetry)
			}
		}
		if err := q.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSusQueueCatchesStaleIndex corrupts each part of the retry index
// (a tree leaf, an inner tree node, a bucket front) and expects
// CheckInvariants to notice.
func TestSusQueueCatchesStaleIndex(t *testing.T) {
	cfgs := mkConfigs(5)
	q := new(SusQueue)
	q.Reset(cfgs)
	for i := 0; i < 10; i++ {
		task := mkTask(i)
		task.Resolved = cfgs[i%5]
		q.Add(task)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(q.tree); i++ {
		saved := q.tree[i]
		q.tree[i]++
		if err := q.CheckInvariants(); err == nil {
			t.Errorf("stale tree node %d not detected", i)
		}
		q.tree[i] = saved
	}
	saved := q.front[2]
	q.front[2] = q.arena[saved].next[lvlBucket]
	if err := q.CheckInvariants(); err == nil {
		t.Error("bucket front past its head not detected")
	}
	q.front[2] = saved
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestSusQueueRebaseRekeys starts a walk with seq at the rebase
// threshold: the walk renumbers the queue, so it must re-key the
// range minimum before taking fronts from it.
func TestSusQueueRebaseRekeys(t *testing.T) {
	cfgs := mkConfigs(3)
	q := new(SusQueue)
	q.Reset(cfgs)
	q.seq = rebaseAt - 3
	for i := 0; i < 6; i++ {
		task := mkTask(i)
		task.Resolved = cfgs[(i+1)%3]
		q.Add(task)
	}
	var seen []int
	q.Walk(false, &Filter{Area: 250, Idle: []int{0}}, func(task *model.Task) bool {
		seen = append(seen, task.No)
		return true
	})
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(seen, want) {
		t.Fatalf("visited %v, want %v", seen, want)
	}
	if q.seq != 6 {
		t.Fatalf("seq %d after the rebase, want 6", q.seq)
	}
	if err := q.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// Property: arbitrary interleavings of list add/remove keep linkage sane.
func TestQuickListOps(t *testing.T) {
	f := func(ops []uint8) bool {
		l := new(List)
		pool := make([]*model.Entry, 8)
		for i := range pool {
			pool[i] = mkEntry(i)
		}
		for _, op := range ops {
			e := pool[op%8]
			if op&0x80 != 0 {
				l.Remove(e)
			} else if !e.InIdle {
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

// mkConfigs returns n configurations whose areas fall as their
// numbers rise (100*(n-i)), so area rank and number differ.
func mkConfigs(n int) []*model.Config {
	cfgs := make([]*model.Config, n)
	for i := range cfgs {
		cfgs[i] = &model.Config{No: i, ReqArea: model.Area(100 * (n - i)), ConfigTime: 10}
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
	f       Filter
	rng     *rand.Rand
	visited []int
	steps   []uint64
}

// Property: under arbitrary interleavings of add, remove and walks —
// unfiltered, or filtered by an area bound plus an idle set that a
// visit may shrink, with visits that remove or re-append the visited
// task, append other tasks or change its resolved configuration — the
// queue keeps FIFO order and its invariants, and its walks visit the
// passing tasks in the reference walk's order with the reference step
// counts and SusRetry values.
func TestQuickSusQueueOrder(t *testing.T) {
	const nCfg, nTask = 6, 10
	f := func(ops []uint8, seed int64) bool {
		// filters draws the configuration areas and each walk's
		// filter; both twins get the same ones.
		filters := rand.New(rand.NewSource(seed))
		cfgs := mkConfigs(nCfg)
		for i, r := range filters.Perm(nCfg) {
			cfgs[i].ReqArea = model.Area(100 * (r + 1))
		}
		q := new(SusQueue)
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
				if task.Resolved != nil && !tw.f.Fits(task.Resolved) {
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
				case 3: // a placement took capacity: shrink the filter
					if i := tw.rng.Intn(len(tw.f.Idle) + 1); i < len(tw.f.Idle) {
						tw.f.Idle = slices.Delete(tw.f.Idle, i, i+1)
					} else {
						tw.f.Area = tw.rng.Int63n(tw.f.Area + 1)
					}
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
				area := filters.Int63n(100 * (nCfg + 1))
				var idle []int
				for c := 0; c < nCfg; c++ {
					if filters.Intn(3) == 0 {
						idle = append(idle, c)
					}
				}
				live.f = Filter{Area: area, Idle: idle}
				mirror.f = Filter{Area: area, Idle: slices.Clone(idle)}
				live.steps = append(live.steps, q.Walk(every, &live.f, liveBody))
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
		var got []*model.Task
		q.Each(func(task *model.Task) { got = append(got, task) })
		if !slices.Equal(live.visited, mirror.visited) || !slices.Equal(live.steps, mirror.steps) {
			return false
		}
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
	l := new(List)
	entries := make([]*model.Entry, 128)
	for i := range entries {
		entries[i] = mkEntry(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := entries[i%128]
		if e.InIdle {
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
	q := new(SusQueue)
	q.Reset(cfgs)
	tasks := []*model.Task{mkTask(1), mkTask(2), mkTask(3)}
	for i, task := range tasks {
		task.Resolved = cfgs[i%2]
	}
	filter := &Filter{Idle: []int{0}}
	churn := func() {
		for _, task := range tasks {
			q.Add(task)
		}
		q.Walk(false, filter, func(task *model.Task) bool {
			q.Remove(task)
			return true
		})
		for _, task := range tasks {
			q.Remove(task)
		}
	}
	churn() // warm the arena to depth 3
	if allocs := testing.AllocsPerRun(500, churn); allocs != 0 {
		t.Fatalf("steady-state suspend/retry churn allocates %v allocs/op, want 0", allocs)
	}
}

// TestSusQueueAppendTasks pins the recycled-snapshot form used by the
// drain loop: FIFO order into a reused backing array, no allocation
// once the array fits the queue.
func TestSusQueueAppendTasks(t *testing.T) {
	q := new(SusQueue)
	q.Reset(nil)
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
	if got := q.AppendTasks(nil); len(got) != 3 {
		t.Fatalf("Tasks after AppendTasks: %v", got)
	}
}
