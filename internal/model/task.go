package model

import "fmt"

// Task is an application task (paper Eq. 3):
//
//	Task_i(t_required, Cpref, data)
//
// plus the bookkeeping fields of the paper's Task class (§IV-C):
// create/start/completion times, assigned configuration and the
// suspension retry counter.
type Task struct {
	// No is the task number in generation order.
	No int
	// NeededArea is the ReqArea of the task's preferred configuration.
	// It is carried on the task so the scheduler can find a closest
	// match even when Cpref itself is not in the configurations list.
	NeededArea Area
	// PrefConfig is the preferred configuration number (Cpref). It
	// may name a configuration that does not exist in the
	// configurations list (the paper assigns such Cprefs to 15% of
	// tasks); those tasks run on the closest match.
	PrefConfig int
	// AssignedConfig is the configuration the task actually ran on;
	// -1 until assigned.
	AssignedConfig int
	// Data is the input data size of the task (bytes); it only feeds
	// the communication-delay model.
	Data int64
	// Class is the traffic-class index of a multi-class scenario
	// source (workload.ClassedSource ordering); 0 for single-class
	// streams. It feeds per-class accounting only — scheduling never
	// reads it.
	Class int

	// CreateTime is the timetick the task entered the system.
	CreateTime int64
	// StartTime is the timetick the task was submitted to a node.
	StartTime int64
	// CompletionTime is the timetick the task finished.
	CompletionTime int64
	// RequiredTime is t_required: execution time on the preferred
	// configuration.
	RequiredTime int64
	// CommDelay and ConfigDelay record t_comm and t_config actually
	// charged to this task (Eq. 8 components).
	CommDelay   int64
	ConfigDelay int64

	// SusRetry counts how many times the task was re-examined while
	// sitting in the suspension queue: once for every retry walk that
	// reached it, whether or not the walk asked the policy about it.
	// The queue credits walks lazily, so while the task is queued the
	// field may lag; it is exact once the task leaves the queue and
	// whenever the engine checkpoints.
	SusRetry int64
	// Retries counts how many times the task was displaced by a node
	// crash and re-dispatched; bounded by the run's retry budget.
	Retries int64

	// Resolved caches the configuration the scheduler resolved for
	// this task (Cpref if present in the configurations list, else
	// C_ClosestMatch) so suspension-queue retries do not repeat the
	// linear configuration search. Managed by the scheduling policy.
	Resolved *Config
	// ResolvedClosest records that Resolved is the closest match.
	ResolvedClosest bool
	// SusSlot is the task's element in the suspension queue's arena;
	// 0 when the task is not queued. Managed by reslists.SusQueue.
	SusSlot int32

	// Status is the lifecycle state.
	Status TaskStatus
}

// NewTask builds a task in the Created state with unset assignment.
func NewTask(no int, neededArea Area, prefConfig int, requiredTime, createTime int64) *Task {
	return new(Task).Init(no, neededArea, prefConfig, requiredTime, createTime)
}

// Init (re)initialises t exactly as NewTask would a fresh struct,
// clearing every bookkeeping field from a previous life. It is the
// reuse path of the task free lists (workload.Recycler): pooled
// sources hand recycled structs through Init so a streamed run's
// tasks are indistinguishable from freshly allocated ones.
func (t *Task) Init(no int, neededArea Area, prefConfig int, requiredTime, createTime int64) *Task {
	*t = Task{
		No:             no,
		NeededArea:     neededArea,
		PrefConfig:     prefConfig,
		AssignedConfig: -1,
		CreateTime:     createTime,
		RequiredTime:   requiredTime,
		StartTime:      -1,
		CompletionTime: -1,
		Status:         TaskCreated,
	}
	return t
}

// WaitTime returns t_wait = t_start − t_create + t_comm + t_config
// (paper Eq. 8). It is only meaningful once the task has started.
func (t *Task) WaitTime() int64 {
	if t.StartTime < 0 {
		return 0
	}
	return t.StartTime - t.CreateTime + t.CommDelay + t.ConfigDelay
}

// TurnaroundTime returns the lapse from arrival to completion
// (Table I "average running time of each task" is reported from this).
func (t *Task) TurnaroundTime() int64 {
	if t.CompletionTime < 0 {
		return 0
	}
	return t.CompletionTime - t.CreateTime
}

// Validate reports whether the task is well-formed.
func (t *Task) Validate() error {
	if t.NeededArea <= 0 {
		return fmt.Errorf("model: task %d has non-positive NeededArea %d", t.No, t.NeededArea)
	}
	if t.RequiredTime <= 0 {
		return fmt.Errorf("model: task %d has non-positive RequiredTime %d", t.No, t.RequiredTime)
	}
	if t.CreateTime < 0 {
		return fmt.Errorf("model: task %d has negative CreateTime %d", t.No, t.CreateTime)
	}
	return nil
}

// String implements fmt.Stringer.
func (t *Task) String() string {
	return fmt.Sprintf("T%d(pref=C%d area=%d req=%d %s)",
		t.No, t.PrefConfig, t.NeededArea, t.RequiredTime, t.Status)
}
