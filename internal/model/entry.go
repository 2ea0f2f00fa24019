package model

import "fmt"

// Entry is one configuration-task pair on a node (the paper's
// ConfigTaskPair, Fig. 3). An Entry with a nil Task is an idle
// region: the configuration is resident but nothing is running on it.
//
// The paper threads nodes through per-configuration idle lists with
// intrusive Inext pointers on the node. Under partial reconfiguration
// a node can hold several configurations and must appear in several
// idle lists at once, so the intrusive hooks live here, on the entry,
// instead (one entry = one list membership). The hooks are maintained
// exclusively by the reslists package. A busy region sits in no list:
// the paper's Bnext busy lists are not kept (see package resinfo).
type Entry struct {
	// Config is the resident configuration. Never nil for a live entry.
	Config *Config
	// Task is the task running on this region, or nil when idle.
	Task *Task
	// Node is the owning node.
	Node *Node

	// Intrusive hooks for the per-configuration idle list, mirroring
	// the paper's Inext; InIdle records current membership.
	INext, IPrev *Entry
	InIdle       bool
}

// Idle reports whether no task is running on this region.
func (e *Entry) Idle() bool { return e.Task == nil }

// String implements fmt.Stringer.
func (e *Entry) String() string {
	task := "idle"
	if e.Task != nil {
		task = fmt.Sprintf("T%d", e.Task.No)
	}
	return fmt.Sprintf("entry(N%d C%d %s)", e.Node.No, e.Config.No, task)
}
