package model

import (
	"errors"
	"strings"
	"testing"
	"testing/quick"
)

func cfg(no int, area Area) *Config {
	return &Config{No: no, ReqArea: area, Ptype: PTypeSoftCore, ConfigTime: 15, BSize: area * 100}
}

func TestStateStrings(t *testing.T) {
	cases := map[string]string{
		StateBlank.String():     "blank",
		StateIdle.String():      "idle",
		StateBusy.String():      "busy",
		NodeState(9).String():   "NodeState(9)",
		TaskCreated.String():    "created",
		TaskSuspended.String():  "suspended",
		TaskRunning.String():    "running",
		TaskCompleted.String():  "completed",
		TaskDiscarded.String():  "discarded",
		TaskStatus(42).String(): "TaskStatus(42)",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("String() = %q, want %q", got, want)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := cfg(1, 500).Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := cfg(1, 0).Validate(); err == nil {
		t.Error("zero-area config accepted")
	}
	bad := cfg(1, 500)
	bad.ConfigTime = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative ConfigTime accepted")
	}
	bad2 := cfg(1, 500)
	bad2.BSize = -1
	if err := bad2.Validate(); err == nil {
		t.Error("negative BSize accepted")
	}
}

func TestTaskLifecycleFields(t *testing.T) {
	task := NewTask(7, 800, 3, 1000, 50)
	if task.Status != TaskCreated || task.AssignedConfig != -1 {
		t.Fatalf("fresh task state wrong: %+v", task)
	}
	if task.WaitTime() != 0 {
		t.Errorf("unstarted task WaitTime = %d", task.WaitTime())
	}
	if task.TurnaroundTime() != 0 {
		t.Errorf("uncompleted task TurnaroundTime = %d", task.TurnaroundTime())
	}
	task.StartTime = 120
	task.CommDelay = 5
	task.ConfigDelay = 15
	if got := task.WaitTime(); got != 120-50+5+15 {
		t.Errorf("WaitTime = %d, want %d (Eq. 8)", got, 120-50+5+15)
	}
	task.CompletionTime = 1120
	if got := task.TurnaroundTime(); got != 1070 {
		t.Errorf("TurnaroundTime = %d, want 1070", got)
	}
	if err := task.Validate(); err != nil {
		t.Errorf("valid task rejected: %v", err)
	}
	if err := NewTask(1, 0, 1, 10, 0).Validate(); err == nil {
		t.Error("zero-area task accepted")
	}
	if err := NewTask(1, 10, 1, 0, 0).Validate(); err == nil {
		t.Error("zero-time task accepted")
	}
	if err := NewTask(1, 10, 1, 10, -1).Validate(); err == nil {
		t.Error("negative create time accepted")
	}
}

func TestSendBitstreamAreaAccounting(t *testing.T) {
	n := NewNode(0, 3000, true)
	c1, c2 := cfg(1, 1000), cfg(2, 1500)
	e1, err := n.SendBitstream(c1)
	if err != nil {
		t.Fatal(err)
	}
	if n.AvailableArea != 2000 || n.ReconfigCount != 1 {
		t.Fatalf("after first config: avail=%d count=%d", n.AvailableArea, n.ReconfigCount)
	}
	if _, err := n.SendBitstream(c2); err != nil {
		t.Fatal(err)
	}
	if n.AvailableArea != 500 {
		t.Fatalf("Eq.4 violated: avail=%d", n.AvailableArea)
	}
	// Third config does not fit.
	if _, err := n.SendBitstream(cfg(3, 600)); !errors.Is(err, ErrInsufficientArea) {
		t.Fatalf("oversized config gave %v", err)
	}
	if e1.Node != n || !e1.Idle() {
		t.Fatal("entry wiring wrong")
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestFullModeSingleConfig(t *testing.T) {
	n := NewNode(0, 4000, false)
	if _, err := n.SendBitstream(cfg(1, 1000)); err != nil {
		t.Fatal(err)
	}
	if _, err := n.SendBitstream(cfg(2, 1000)); !errors.Is(err, ErrFullModeViolation) {
		t.Fatalf("full mode accepted second config: %v", err)
	}
}

func TestNodeStates(t *testing.T) {
	n := NewNode(0, 3000, true)
	if n.State() != StateBlank || !n.Blank() {
		t.Fatal("fresh node not blank")
	}
	e, _ := n.SendBitstream(cfg(1, 1000))
	if n.State() != StateIdle {
		t.Fatalf("configured node state = %s", n.State())
	}
	task := NewTask(1, 1000, 1, 100, 0)
	if err := n.AddTaskToNode(e, task); err != nil {
		t.Fatal(err)
	}
	if n.State() != StateBusy || n.RunningTasks() != 1 {
		t.Fatalf("running node state = %s", n.State())
	}
	if task.Status != TaskRunning || task.AssignedConfig != 1 {
		t.Fatalf("task not marked running: %+v", task)
	}
	if _, err := n.RemoveTaskFromNode(task); err != nil {
		t.Fatal(err)
	}
	if n.State() != StateIdle {
		t.Fatalf("state after removal = %s", n.State())
	}
}

func TestAddTaskErrors(t *testing.T) {
	n1 := NewNode(1, 3000, true)
	n2 := NewNode(2, 3000, true)
	e1, _ := n1.SendBitstream(cfg(1, 1000))
	task := NewTask(1, 1000, 1, 100, 0)
	if err := n2.AddTaskToNode(e1, task); !errors.Is(err, ErrEntryForeign) {
		t.Fatalf("foreign entry gave %v", err)
	}
	if err := n1.AddTaskToNode(e1, task); err != nil {
		t.Fatal(err)
	}
	other := NewTask(2, 1000, 1, 100, 0)
	if err := n1.AddTaskToNode(e1, other); !errors.Is(err, ErrEntryBusy) {
		t.Fatalf("busy entry gave %v", err)
	}
	if _, err := n1.RemoveTaskFromNode(other); !errors.Is(err, ErrTaskNotHere) {
		t.Fatalf("absent task gave %v", err)
	}
}

func TestFullModeOneTask(t *testing.T) {
	n := NewNode(0, 4000, false)
	e, _ := n.SendBitstream(cfg(1, 1000))
	if err := n.AddTaskToNode(e, NewTask(1, 1000, 1, 100, 0)); err != nil {
		t.Fatal(err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMakeNodeBlank(t *testing.T) {
	n := NewNode(0, 3000, true)
	e1, _ := n.SendBitstream(cfg(1, 1000))
	_, _ = n.SendBitstream(cfg(2, 500))
	task := NewTask(1, 1000, 1, 100, 0)
	_ = n.AddTaskToNode(e1, task)
	if _, err := n.MakeNodeBlank(); !errors.Is(err, ErrEntryBusy) {
		t.Fatalf("blanking busy node gave %v", err)
	}
	_, _ = n.RemoveTaskFromNode(task)
	removed, err := n.MakeNodeBlank()
	if err != nil {
		t.Fatal(err)
	}
	if len(removed) != 2 {
		t.Fatalf("removed %d entries, want 2", len(removed))
	}
	if n.AvailableArea != n.TotalArea || !n.Blank() {
		t.Fatalf("node not blank after MakeNodeBlank: %v", n)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestMakeNodePartiallyBlank(t *testing.T) {
	n := NewNode(0, 4000, true)
	e1, _ := n.SendBitstream(cfg(1, 1000))
	e2, _ := n.SendBitstream(cfg(2, 500))
	e3, _ := n.SendBitstream(cfg(3, 700))
	task := NewTask(1, 500, 2, 100, 0)
	_ = n.AddTaskToNode(e2, task)

	// Evicting a busy entry must fail atomically (no area change).
	before := n.AvailableArea
	if err := n.MakeNodePartiallyBlank([]*Entry{e1, e2}); !errors.Is(err, ErrEntryBusy) {
		t.Fatalf("evicting busy entry gave %v", err)
	}
	if n.AvailableArea != before || len(n.Entries) != 3 {
		t.Fatal("failed eviction mutated node")
	}

	if err := n.MakeNodePartiallyBlank([]*Entry{e1, e3}); err != nil {
		t.Fatal(err)
	}
	if n.AvailableArea != 4000-500 {
		t.Fatalf("avail=%d after eviction, want 3500", n.AvailableArea)
	}
	if len(n.Entries) != 1 || n.Entries[0] != e2 {
		t.Fatalf("wrong survivor entries: %v", n.Entries)
	}
	// Foreign entry rejected.
	other := NewNode(1, 1000, true)
	eF, _ := other.SendBitstream(cfg(9, 100))
	if err := n.MakeNodePartiallyBlank([]*Entry{eF}); !errors.Is(err, ErrEntryForeign) {
		t.Fatalf("foreign eviction gave %v", err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestInvariantDetectsCorruption(t *testing.T) {
	n := NewNode(0, 3000, true)
	_, _ = n.SendBitstream(cfg(1, 1000))
	n.AvailableArea = 999 // corrupt
	if err := n.CheckInvariants(); err == nil {
		t.Fatal("corrupted area not detected")
	}
	n2 := NewNode(1, 3000, true)
	e, _ := n2.SendBitstream(cfg(1, 1000))
	_ = n2.AddTaskToNode(e, NewTask(1, 1000, 1, 100, 0))
	e.InIdle = true
	if err := n2.CheckInvariants(); err == nil {
		t.Fatal("busy region in an idle list not detected")
	}
}

// Property: any sequence of fitting SendBitstream calls preserves Eq. 4
// and never drives AvailableArea negative.
func TestQuickAreaConservation(t *testing.T) {
	f := func(total uint16, areas []uint16) bool {
		tot := Area(total%4000) + 1
		n := NewNode(0, tot, true)
		for i, a := range areas {
			req := Area(a%2000) + 1
			_, err := n.SendBitstream(cfg(i, req))
			if req > 0 && err != nil && !errors.Is(err, ErrInsufficientArea) {
				return false
			}
			if n.CheckInvariants() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: configure/evict round-trips restore AvailableArea exactly.
func TestQuickConfigureEvictRoundTrip(t *testing.T) {
	f := func(areas []uint16) bool {
		n := NewNode(0, 1<<20, true)
		var entries []*Entry
		for i, a := range areas {
			e, err := n.SendBitstream(cfg(i, Area(a%2000)+1))
			if err != nil {
				return false
			}
			entries = append(entries, e)
		}
		if err := n.MakeNodePartiallyBlank(entries); err != nil {
			return false
		}
		return n.AvailableArea == n.TotalArea && n.Blank() && n.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStringers(t *testing.T) {
	n := NewNode(3, 2000, true)
	e, _ := n.SendBitstream(cfg(5, 800))
	task := NewTask(9, 800, 5, 100, 0)
	for _, s := range []string{n.String(), e.String(), task.String(), cfg(5, 800).String()} {
		if s == "" {
			t.Fatal("empty String()")
		}
	}
	if !strings.Contains(e.String(), "idle") {
		t.Errorf("idle entry string: %s", e)
	}
	_ = n.AddTaskToNode(e, task)
	if !strings.Contains(e.String(), "T9") {
		t.Errorf("busy entry string: %s", e)
	}
}
