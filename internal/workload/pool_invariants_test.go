//go:build invariants

package workload

import (
	"strings"
	"testing"

	"dreamsim/internal/model"
)

// mustPanic runs f and fails unless it panics with a message
// containing want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		r := recover()
		if r == nil {
			t.Fatalf("no panic, want one containing %q", want)
		}
		if msg, _ := r.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one containing %q", r, want)
		}
	}()
	f()
}

// TestReleasePoisonsTask: under -tags invariants a released task is
// overwritten with the poison, dropping its Resolved pointer, and the
// draw that reuses it hands out a cleanly initialised task.
func TestReleasePoisonsTask(t *testing.T) {
	var p taskPool
	task := model.NewTask(1, 10, 0, 5, 0)
	task.Resolved = &model.Config{No: 0, ReqArea: 10}
	task.Status = model.TaskCompleted
	p.Release(task)
	if *task != poisonedTask {
		t.Fatalf("released task %+v, want the poison", *task)
	}
	if task.Resolved != nil {
		t.Fatal("released task keeps its Resolved pointer")
	}
	got := p.get(2, 20, 1, 7, 3)
	if got != task || *got != *model.NewTask(2, 20, 1, 7, 3) {
		t.Fatalf("redrawn task %+v, want a fresh task 2 in the released struct", *got)
	}
}

// TestStaleTaskWriteAsserts: a write through a pointer to a released
// task fails at the draw that would hand the struct out again.
func TestStaleTaskWriteAsserts(t *testing.T) {
	var p taskPool
	stale := model.NewTask(1, 10, 0, 5, 0)
	p.Release(stale)
	stale.Status = model.TaskRunning
	mustPanic(t, "written after release", func() { p.get(2, 10, 0, 5, 1) })
}

// TestDoubleTaskReleaseAsserts: releasing a task twice would put two
// aliases of it on the free list; the invariants build panics.
func TestDoubleTaskReleaseAsserts(t *testing.T) {
	var p taskPool
	task := model.NewTask(1, 10, 0, 5, 0)
	p.Release(task)
	mustPanic(t, "double release", func() { p.Release(task) })
}
