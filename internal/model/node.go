package model

import (
	"errors"
	"fmt"
)

// Errors returned by node mutations.
var (
	// ErrInsufficientArea: the configuration does not fit in the
	// node's AvailableArea.
	ErrInsufficientArea = errors.New("model: insufficient available area")
	// ErrEntryBusy: the targeted region still runs a task.
	ErrEntryBusy = errors.New("model: entry is busy")
	// ErrEntryForeign: the entry does not belong to this node.
	ErrEntryForeign = errors.New("model: entry belongs to another node")
	// ErrTaskNotHere: the task is not running on this node.
	ErrTaskNotHere = errors.New("model: task not running on this node")
	// ErrFullModeViolation: a second configuration/task was pushed to
	// a node operating in full-reconfiguration mode.
	ErrFullModeViolation = errors.New("model: node in full mode already holds a configuration")
	// ErrCapsMismatch: the node lacks a capability the configuration
	// requires.
	ErrCapsMismatch = errors.New("model: node lacks required capability")
	// ErrNodeDown: the node crashed and has not recovered; no
	// configuration or task may be pushed onto it.
	ErrNodeDown = errors.New("model: node is down")
	// ErrNodeUp: Restore was called on a node that is not down.
	ErrNodeUp = errors.New("model: node is not down")
)

// Node is a reconfigurable processing node (paper Eq. 1):
//
//	Node_i(TotalArea, AvailableArea, C, family, caps, state)
//
// Its config-task-pair list tracks the resident configurations and
// the tasks running on them (Fig. 3), and AvailableArea always obeys
// Eq. 4: TotalArea − Σ ReqArea of resident configurations.
type Node struct {
	// No is the node number.
	No int
	// TotalArea is the node's total reconfigurable area.
	TotalArea Area
	// AvailableArea is the remaining unconfigured area (Eq. 4).
	AvailableArea Area
	// Family groups compatible nodes sharing resources/performance.
	Family string
	// Caps lists extra capabilities (embedded memory, DSP slices,
	// configuration bandwidth, ...).
	Caps []string
	// Entries is the config-task-pair list (Fig. 3).
	Entries []*Entry
	// ReconfigCount counts bitstream sends to this node.
	ReconfigCount int64
	// NetworkDelay is the node's communication latency in timeticks
	// (the t_comm charged to tasks sent here).
	NetworkDelay int64
	// PartialMode: when false the node behaves like a classic
	// full-reconfiguration FPGA — at most one resident configuration
	// and one task ("one node-one task mapping").
	PartialMode bool
	// Down marks a crashed node. A down node holds no configurations
	// (the fabric state died with it) and is excluded from every
	// placement search until Restore brings it back blank.
	Down bool
	// Slot is the node's position in its resource manager's node
	// slice, maintained by resinfo.New; the manager's SoA scan arrays
	// (free area, reclaimable area, entry count, state flags) are
	// indexed by it.
	Slot int
}

// NewNode returns a blank node with the given geometry.
func NewNode(no int, totalArea Area, partial bool) *Node {
	return &Node{
		No:            no,
		TotalArea:     totalArea,
		AvailableArea: totalArea,
		Family:        "virtex-sim",
		PartialMode:   partial,
	}
}

// State derives the node status (paper Eq. 1 `state` plus the blank
// distinction used by the scheduling algorithm in §V).
func (n *Node) State() NodeState {
	if n.Down {
		return StateDown
	}
	if len(n.Entries) == 0 {
		return StateBlank
	}
	for _, e := range n.Entries {
		if e.Task != nil {
			return StateBusy
		}
	}
	return StateIdle
}

// Blank reports whether the node holds no configurations.
func (n *Node) Blank() bool { return len(n.Entries) == 0 }

// RunningTasks counts tasks currently executing on the node.
func (n *Node) RunningTasks() int {
	c := 0
	for _, e := range n.Entries {
		if e.Task != nil {
			c++
		}
	}
	return c
}

// HasCaps reports whether the node offers every listed capability
// (subset test against the node's caps, Eq. 1).
func (n *Node) HasCaps(required []string) bool {
	for _, want := range required {
		found := false
		for _, have := range n.Caps {
			if have == want {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// SendBitstream adds configuration cfg to the node (paper method):
// it creates a new idle config-task entry, deducts the required area
// from AvailableArea and increments the reconfiguration count. In
// full mode the node must be blank first; the node must offer every
// capability the configuration requires.
//
//lint:deadexport (b) paper-named API: the node's SendBitstream of §IV-A
func (n *Node) SendBitstream(cfg *Config) (*Entry, error) {
	return n.SendBitstreamReusing(cfg, nil)
}

// SendBitstreamReusing is SendBitstream drawing the new region's
// Entry from spare when non-nil (the resource manager's entry pool).
// spare must be unlinked from every node and list; it is overwritten
// wholesale.
func (n *Node) SendBitstreamReusing(cfg *Config, spare *Entry) (*Entry, error) {
	if n.Down {
		return nil, fmt.Errorf("%w: node %d", ErrNodeDown, n.No)
	}
	if !n.PartialMode && len(n.Entries) > 0 {
		return nil, ErrFullModeViolation
	}
	if !n.HasCaps(cfg.RequiredCaps) {
		return nil, fmt.Errorf("%w: node %d lacks caps for config %d",
			ErrCapsMismatch, n.No, cfg.No)
	}
	if cfg.ReqArea > n.AvailableArea {
		return nil, fmt.Errorf("%w: node %d has %d free, config %d needs %d",
			ErrInsufficientArea, n.No, n.AvailableArea, cfg.No, cfg.ReqArea)
	}
	e := spare
	if e == nil {
		e = new(Entry)
	}
	*e = Entry{Config: cfg, Node: n}
	n.Entries = append(n.Entries, e)
	n.AvailableArea -= cfg.ReqArea
	n.ReconfigCount++
	return e, nil
}

// MakeNodeBlank removes all configurations (paper method). Every
// entry must be idle; the freed area returns to AvailableArea so that
// AvailableArea == TotalArea afterwards. It returns the removed
// entries so callers (the resource lists) can unlink them. The node
// keeps its Entries array for the next configurations, so the
// returned slice is valid until the node is next configured.
func (n *Node) MakeNodeBlank() ([]*Entry, error) {
	for _, e := range n.Entries {
		if e.Task != nil {
			return nil, fmt.Errorf("%w: node %d entry C%d runs T%d",
				ErrEntryBusy, n.No, e.Config.No, e.Task.No)
		}
	}
	removed := n.Entries
	n.Entries = n.Entries[:0]
	n.AvailableArea = n.TotalArea
	return removed, nil
}

// MakeNodePartiallyBlank removes the given idle entries from the node
// (paper method), readjusting AvailableArea. All entries must belong
// to this node and be idle.
func (n *Node) MakeNodePartiallyBlank(victims []*Entry) error {
	for _, v := range victims {
		if v.Node != n {
			return ErrEntryForeign
		}
		if v.Task != nil {
			return fmt.Errorf("%w: node %d entry C%d runs T%d",
				ErrEntryBusy, n.No, v.Config.No, v.Task.No)
		}
	}
	for _, v := range victims {
		if !n.removeEntry(v) {
			return fmt.Errorf("model: entry C%d not found on node %d", v.Config.No, n.No)
		}
		n.AvailableArea += v.Config.ReqArea
	}
	return nil
}

// removeEntry unlinks e from the entries slice; reports success.
func (n *Node) removeEntry(e *Entry) bool {
	for i, cur := range n.Entries {
		if cur == e {
			n.Entries = append(n.Entries[:i], n.Entries[i+1:]...)
			return true
		}
	}
	return false
}

// AddTaskToNode starts task on the region entry (paper method). The
// entry must be idle and resident on this node.
func (n *Node) AddTaskToNode(e *Entry, task *Task) error {
	if n.Down {
		return fmt.Errorf("%w: node %d", ErrNodeDown, n.No)
	}
	if e.Node != n {
		return ErrEntryForeign
	}
	if e.Task != nil {
		return fmt.Errorf("%w: node %d entry C%d runs T%d",
			ErrEntryBusy, n.No, e.Config.No, e.Task.No)
	}
	if !n.PartialMode && n.RunningTasks() > 0 {
		return ErrFullModeViolation
	}
	e.Task = task
	task.AssignedConfig = e.Config.No
	task.Status = TaskRunning
	return nil
}

// Fail crashes the node: the tasks it was running are detached and
// appended to tasks (the caller requeues them), every resident
// configuration is invalidated — the fabric state is lost with the
// node — and the node is marked down so placement searches exclude
// it. The removed entries are returned so callers (the resource
// lists) can unlink them; as in MakeNodeBlank, they share the node's
// Entries array. Failing a node that is already down is an error;
// callers treat repeat crashes as no-ops before the state change.
func (n *Node) Fail(tasks []*Task) (_ []*Task, removed []*Entry, err error) {
	if n.Down {
		return tasks, nil, fmt.Errorf("%w: node %d", ErrNodeDown, n.No)
	}
	for _, e := range n.Entries {
		if e.Task != nil {
			tasks = append(tasks, e.Task)
			e.Task = nil
		}
	}
	removed = n.Entries
	n.Entries = n.Entries[:0]
	n.AvailableArea = n.TotalArea
	n.Down = true
	return tasks, removed, nil
}

// Restore brings a crashed node back into service, blank: the fabric
// is usable again but holds no configurations.
func (n *Node) Restore() error {
	if !n.Down {
		return fmt.Errorf("%w: node %d", ErrNodeUp, n.No)
	}
	n.Down = false
	return nil
}

// RemoveTaskFromNode detaches task from its region (paper method) and
// returns the now-idle entry. The configuration stays resident.
func (n *Node) RemoveTaskFromNode(task *Task) (*Entry, error) {
	for _, e := range n.Entries {
		if e.Task == task {
			e.Task = nil
			return e, nil
		}
	}
	return nil, fmt.Errorf("%w: task %d on node %d", ErrTaskNotHere, task.No, n.No)
}

// CheckInvariants verifies Eq. 4 and mode constraints; it returns the
// first violation found or nil. Used by tests and the engine's debug
// mode.
func (n *Node) CheckInvariants() error {
	var used Area
	for _, e := range n.Entries {
		if e.Node != n {
			return fmt.Errorf("node %d: entry %v has wrong owner", n.No, e)
		}
		if e.Config == nil {
			return fmt.Errorf("node %d: entry with nil config", n.No)
		}
		used += e.Config.ReqArea
		if e.Task != nil && e.Task.Status != TaskRunning {
			return fmt.Errorf("node %d: entry C%d holds task T%d in state %s",
				n.No, e.Config.No, e.Task.No, e.Task.Status)
		}
		if e.InIdle && e.Task != nil {
			return fmt.Errorf("node %d: busy entry C%d in an idle list", n.No, e.Config.No)
		}
	}
	if n.Down && len(n.Entries) > 0 {
		return fmt.Errorf("node %d: down but still holds %d configurations", n.No, len(n.Entries))
	}
	if n.AvailableArea != n.TotalArea-used {
		return fmt.Errorf("node %d: Eq.4 violated: available %d != total %d - used %d",
			n.No, n.AvailableArea, n.TotalArea, used)
	}
	if n.AvailableArea < 0 || n.AvailableArea > n.TotalArea {
		return fmt.Errorf("node %d: AvailableArea %d out of [0,%d]", n.No, n.AvailableArea, n.TotalArea)
	}
	if !n.PartialMode {
		if len(n.Entries) > 1 {
			return fmt.Errorf("node %d: full mode with %d configurations", n.No, len(n.Entries))
		}
		if n.RunningTasks() > 1 {
			return fmt.Errorf("node %d: full mode with %d running tasks", n.No, n.RunningTasks())
		}
	}
	return nil
}

// String implements fmt.Stringer.
func (n *Node) String() string {
	return fmt.Sprintf("N%d(%s total=%d avail=%d cfgs=%d tasks=%d)",
		n.No, n.State(), n.TotalArea, n.AvailableArea, len(n.Entries), n.RunningTasks())
}
