package dreamsim

import (
	"fmt"
	"io"
	"sort"

	"dreamsim/internal/model"
	"dreamsim/internal/rng"
	"dreamsim/internal/workload"
)

// GraphTask is one task of a DAG workload (the paper's §VII
// future-work extension: "scheduling policies to schedule task graphs
// on the distributed system with reconfigurable nodes").
type GraphTask struct {
	// ID is the unique task number.
	ID int
	// RequiredTime is t_required in timeticks.
	RequiredTime int64
	// PrefConfig is the preferred configuration number. Numbers
	// outside [0, Params.Configs) model a configuration absent from
	// the list: the scheduler falls back to the closest match by
	// NeededArea.
	PrefConfig int
	// NeededArea is the task's fabric requirement. It must be
	// positive; for tasks whose PrefConfig exists the scheduler uses
	// the configuration's own area, so any positive value works.
	NeededArea int64
	// SubmitTime is the tick the task enters the system.
	SubmitTime int64
	// DependsOn lists IDs of tasks that must complete first. Each
	// must be the ID of an earlier entry in the workload slice (this
	// makes cycles impossible).
	DependsOn []int
}

// GraphWorkload is a DAG workload plus its intrinsic bounds.
type GraphWorkload struct {
	Tasks []GraphTask
	// CriticalPath is the longest dependency chain in timeticks — the
	// makespan lower bound on unlimited nodes.
	CriticalPath int64
	// TotalWork is the sum of all RequiredTimes.
	TotalWork int64
}

// RunGraph simulates a DAG workload: tasks arrive at their
// SubmitTimes but only become schedulable when every dependency has
// completed. Dependants of discarded tasks are discarded.
// TotalSimulationTime in the result is the workload's makespan.
func RunGraph(tasks []GraphTask, p Params) (Result, error) {
	if len(tasks) == 0 {
		return Result{}, fmt.Errorf("dreamsim: empty graph workload")
	}
	seen := make(map[int]bool, len(tasks))
	deps := make(map[int][]int)
	mtasks := make([]*model.Task, 0, len(tasks))
	for _, gt := range tasks {
		if seen[gt.ID] {
			return Result{}, fmt.Errorf("dreamsim: duplicate graph task ID %d", gt.ID)
		}
		for _, d := range gt.DependsOn {
			if !seen[d] {
				return Result{}, fmt.Errorf("dreamsim: task %d depends on %d, which is not an earlier task",
					gt.ID, d)
			}
		}
		seen[gt.ID] = true
		if len(gt.DependsOn) > 0 {
			deps[gt.ID] = append([]int(nil), gt.DependsOn...)
		}
		mt := model.NewTask(gt.ID, gt.NeededArea, gt.PrefConfig, gt.RequiredTime, gt.SubmitTime)
		if err := mt.Validate(); err != nil {
			return Result{}, err
		}
		mtasks = append(mtasks, mt)
	}
	sort.SliceStable(mtasks, func(i, j int) bool { return mtasks[i].CreateTime < mtasks[j].CreateTime })
	src, err := workload.SliceSource(mtasks)
	if err != nil {
		return Result{}, err
	}

	// The spec's Tasks count only sizes the synthetic generator, which
	// the explicit source replaces; echo the real count for reports.
	p.Tasks = len(tasks)
	return runScratch(p, nil, src, deps)
}

// SWFMapping controls how Standard Workload Format jobs (Parallel
// Workloads Archive traces) become DReAMSim tasks. Zero values take
// sensible defaults: 1 tick per second, 100 area units per processor
// clamped into the Table II configuration range, executables mapped
// onto 50 configurations.
type SWFMapping struct {
	// TicksPerSecond scales SWF seconds into timeticks.
	TicksPerSecond int64
	// AreaPerProc converts processor counts into fabric area.
	AreaPerProc int64
	// MinArea/MaxArea clamp the derived area.
	MinArea, MaxArea int64
	// Configs maps executable numbers onto configuration numbers.
	Configs int
	// MaxJobs caps the conversion (0 = all jobs).
	MaxJobs int
	// KeepDependencies converts SWF "preceding job" links into task
	// dependencies.
	KeepDependencies bool
}

// LoadSWF converts a Standard Workload Format log — the de-facto
// format of recorded cluster traces — into a DAG workload runnable
// with RunGraph. Cancelled/failed jobs (run time ≤ 0) are skipped.
func LoadSWF(r io.Reader, m SWFMapping) ([]GraphTask, error) {
	tasks, deps, err := workload.ParseSWF(r, workload.SWFMapping{
		TicksPerSecond:   m.TicksPerSecond,
		AreaPerProc:      m.AreaPerProc,
		MinArea:          m.MinArea,
		MaxArea:          m.MaxArea,
		Configs:          m.Configs,
		MaxJobs:          m.MaxJobs,
		KeepDependencies: m.KeepDependencies,
	})
	if err != nil {
		return nil, err
	}
	out := make([]GraphTask, 0, len(tasks))
	for _, t := range tasks {
		out = append(out, GraphTask{
			ID:           t.No,
			RequiredTime: t.RequiredTime,
			PrefConfig:   t.PrefConfig,
			NeededArea:   t.NeededArea,
			SubmitTime:   t.CreateTime,
			DependsOn:    deps[t.No],
		})
	}
	return out, nil
}

// RandomLayeredGraph generates a random layered DAG workload against
// the given parameters: `layers` levels of up to `width` parallel
// tasks, an edge from one level to the next with probability
// edgeProb, submissions submitGap ticks apart. The task attribute
// ranges come from p (Table II by default). Every task past the first
// level depends on at least one task of the level before it.
func RandomLayeredGraph(p Params, layers, width int, edgeProb float64, submitGap int64) (GraphWorkload, error) {
	switch {
	case layers < 1 || width < 1:
		return GraphWorkload{}, fmt.Errorf("dreamsim: need at least 1 layer and width, got %d/%d", layers, width)
	case edgeProb < 0 || edgeProb > 1:
		return GraphWorkload{}, fmt.Errorf("dreamsim: edge probability %v outside [0,1]", edgeProb)
	case submitGap < 0:
		return GraphWorkload{}, fmt.Errorf("dreamsim: negative submit gap %d", submitGap)
	}
	ws := p.spec()
	if err := ws.Validate(); err != nil {
		return GraphWorkload{}, err
	}
	r := rng.New(p.Seed)
	configs := workload.GenConfigs(r.Split(), &ws)
	var wl GraphWorkload
	// chain[i] is the longest dependency chain ending with task i. A
	// task depends only on earlier tasks, so one pass in slice order
	// sees every chain before it is extended.
	var chain []int64
	var prev []int // the IDs of the previous level
	for layer := 0; layer < layers; layer++ {
		var cur []int
		for n := 1 + r.Intn(width); n > 0; n-- {
			gt := GraphTask{ID: len(wl.Tasks), SubmitTime: int64(len(wl.Tasks)) * submitGap}
			if gt.SubmitTime < 0 {
				return GraphWorkload{}, fmt.Errorf("dreamsim: task %d submits past the clock's range", gt.ID)
			}
			if r.Bool(ws.ClosestMatchPct) {
				gt.PrefConfig = len(configs) + r.Intn(1<<20)
				gt.NeededArea = r.Int64Range(ws.ConfigAreaLow, ws.ConfigAreaHigh)
			} else {
				cfg := configs[r.Intn(len(configs))]
				gt.PrefConfig, gt.NeededArea = cfg.No, cfg.ReqArea
			}
			gt.RequiredTime = r.Int64Range(ws.TaskReqTimeLow, ws.TaskReqTimeHigh)
			if layer > 0 {
				for _, id := range prev {
					if r.Bool(edgeProb) {
						gt.DependsOn = append(gt.DependsOn, id)
					}
				}
				if len(gt.DependsOn) == 0 { // keep layers dependent
					gt.DependsOn = append(gt.DependsOn, prev[r.Intn(len(prev))])
				}
			}
			var longest int64
			for _, id := range gt.DependsOn {
				longest = max(longest, chain[id])
			}
			chain = append(chain, longest+gt.RequiredTime)
			wl.CriticalPath = max(wl.CriticalPath, chain[gt.ID])
			wl.TotalWork += gt.RequiredTime
			wl.Tasks = append(wl.Tasks, gt)
			cur = append(cur, gt.ID)
		}
		prev = cur
	}
	return wl, nil
}
