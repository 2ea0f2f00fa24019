// Package workload implements DReAMSim's input subsystem (paper
// §III): user-defined resource specification (node and configuration
// generation), synthetic task generation with configurable arrival
// processes, and a line-oriented trace format standing in for "real
// workloads".
package workload

import "fmt"

// ArrivalKind selects the task arrival process.
type ArrivalKind int

const (
	// ArrivalUniform draws inter-arrival gaps uniformly from
	// [1, NextTaskMaxInterval] — the paper's default ("task arrival
	// interval is set between [1..50] time-ticks with uniform
	// distribution").
	ArrivalUniform ArrivalKind = iota
	// ArrivalPoisson draws exponential gaps with the same mean as the
	// uniform process, giving a Poisson arrival stream (the input
	// subsystem supports user-chosen distribution functions).
	ArrivalPoisson
	// ArrivalGamma draws gamma-distributed gaps parameterised by mean
	// and coefficient of variation — cv > 1 clumps arrivals into
	// bursts. Only reachable through scenario files, which carry the
	// cv; the flag-level Spec stays uniform/Poisson.
	ArrivalGamma
	// ArrivalWeibull draws Weibull gaps, an alternative bursty process
	// with a different tail; likewise scenario-only.
	ArrivalWeibull
)

// String implements fmt.Stringer.
func (k ArrivalKind) String() string {
	switch k {
	case ArrivalUniform:
		return "uniform"
	case ArrivalPoisson:
		return "poisson"
	case ArrivalGamma:
		return "gamma"
	case ArrivalWeibull:
		return "weibull"
	default:
		return fmt.Sprintf("ArrivalKind(%d)", int(k))
	}
}

// ParseArrivalKind inverts ArrivalKind.String.
func ParseArrivalKind(s string) (ArrivalKind, error) {
	switch s {
	case "uniform":
		return ArrivalUniform, nil
	case "poisson":
		return ArrivalPoisson, nil
	case "gamma":
		return ArrivalGamma, nil
	case "weibull":
		return ArrivalWeibull, nil
	}
	return 0, fmt.Errorf("workload: unknown arrival kind %q", s)
}

// ParseDistKind inverts DistKind.String.
func ParseDistKind(s string) (DistKind, error) {
	switch s {
	case "uniform":
		return DistUniform, nil
	case "lognormal":
		return DistLognormal, nil
	case "pareto":
		return DistPareto, nil
	}
	return 0, fmt.Errorf("workload: unknown distribution %q", s)
}

// DistKind selects a draw distribution for task attributes.
type DistKind int

const (
	// DistUniform draws uniformly over the range — the paper's model.
	DistUniform DistKind = iota
	// DistLognormal draws a lognormal with its median at the
	// geometric midpoint of the range and ~99.7% of mass inside it,
	// clamped to the range — the standard heavy-tailed fit for
	// recorded job runtimes.
	DistLognormal
	// DistPareto draws a Pareto anchored at the range minimum with
	// tail index 1.5, clamped to the range maximum — heavier-tailed
	// still.
	DistPareto
)

// String implements fmt.Stringer.
func (d DistKind) String() string {
	switch d {
	case DistUniform:
		return "uniform"
	case DistLognormal:
		return "lognormal"
	case DistPareto:
		return "pareto"
	default:
		return fmt.Sprintf("DistKind(%d)", int(d))
	}
}

// Spec carries every generation parameter of Table II.
type Spec struct {
	// Tasks is the number of tasks to generate ([1000...100000]).
	Tasks int
	// NextTaskMaxInterval bounds the arrival gap ([1...50] ticks).
	NextTaskMaxInterval int64
	// Arrival selects the arrival process.
	Arrival ArrivalKind
	// TaskReqTimeLow/High bound t_required ([100...100000] ticks).
	TaskReqTimeLow, TaskReqTimeHigh int64
	// ClosestMatchPct is the fraction of tasks whose Cpref is absent
	// from the configurations list (paper: 15%).
	ClosestMatchPct float64
	// TaskTimeDist selects the t_required distribution (paper:
	// uniform).
	TaskTimeDist DistKind
	// ConfigPopularity skews Cpref draws over the configurations
	// list: 0 = uniform (paper), s > 0 = Zipf with exponent s (a few
	// configurations requested far more often than the rest).
	ConfigPopularity float64

	// Configs is the size of the configurations list (50).
	Configs int
	// ConfigAreaLow/High bound ReqArea ([200...2000] area units).
	ConfigAreaLow, ConfigAreaHigh int64
	// ConfigTimeLow/High bound ConfigTime ([10...20] ticks).
	ConfigTimeLow, ConfigTimeHigh int64

	// Nodes is the node count (100 or 200 in the paper's experiments).
	Nodes int
	// NodeAreaLow/High bound TotalArea ([1000...4000] area units).
	NodeAreaLow, NodeAreaHigh int64

	// CapKinds lists hardware capability labels in play (embedded
	// memory, DSP slices, ... — the node `caps` of Eq. 1). Empty
	// disables the heterogeneity extension: every node hosts every
	// configuration, as in the paper's experiments.
	CapKinds []string
	// NodeCapProb is the probability a node offers each capability.
	NodeCapProb float64
	// ConfigCapProb is the probability a configuration requires each
	// capability.
	ConfigCapProb float64
}

// MaxNodes and MaxConfigs cap the populations a Spec may ask for, so
// an outside input fails validation instead of exhausting memory in
// set-up. Set-up holds about 175 B per node, so MaxNodes nodes take
// about 180 MB: about 200 times the largest documented run of 5,000
// nodes.
const (
	MaxNodes   = 1 << 20
	MaxConfigs = 1 << 16
)

// Validate reports the first incoherent parameter, or nil.
func (s *Spec) Validate() error {
	switch {
	case s.Tasks < 0:
		return fmt.Errorf("workload: negative task count %d", s.Tasks)
	case s.NextTaskMaxInterval < 1:
		return fmt.Errorf("workload: NextTaskMaxInterval %d < 1", s.NextTaskMaxInterval)
	case s.TaskReqTimeLow < 1 || s.TaskReqTimeHigh < s.TaskReqTimeLow:
		return fmt.Errorf("workload: invalid t_required range [%d,%d]", s.TaskReqTimeLow, s.TaskReqTimeHigh)
	case s.ClosestMatchPct < 0 || s.ClosestMatchPct > 1:
		return fmt.Errorf("workload: closest-match share %v outside [0,1]", s.ClosestMatchPct)
	case s.Configs < 1:
		return fmt.Errorf("workload: config count %d < 1", s.Configs)
	case s.Configs > MaxConfigs:
		return fmt.Errorf("workload: config count %d exceeds the limit of %d", s.Configs, MaxConfigs)
	case s.ConfigAreaLow < 1 || s.ConfigAreaHigh < s.ConfigAreaLow:
		return fmt.Errorf("workload: invalid config area range [%d,%d]", s.ConfigAreaLow, s.ConfigAreaHigh)
	case s.ConfigTimeLow < 0 || s.ConfigTimeHigh < s.ConfigTimeLow:
		return fmt.Errorf("workload: invalid config time range [%d,%d]", s.ConfigTimeLow, s.ConfigTimeHigh)
	case s.Nodes < 1:
		return fmt.Errorf("workload: node count %d < 1", s.Nodes)
	case s.Nodes > MaxNodes:
		return fmt.Errorf("workload: node count %d exceeds the limit of %d", s.Nodes, MaxNodes)
	case s.NodeAreaLow < 1 || s.NodeAreaHigh < s.NodeAreaLow:
		return fmt.Errorf("workload: invalid node area range [%d,%d]", s.NodeAreaLow, s.NodeAreaHigh)
	case s.NodeCapProb < 0 || s.NodeCapProb > 1 || s.ConfigCapProb < 0 || s.ConfigCapProb > 1:
		return fmt.Errorf("workload: capability probabilities outside [0,1]")
	case s.ConfigCapProb > 0 && (len(s.CapKinds) == 0 || s.NodeCapProb == 0):
		return fmt.Errorf("workload: configurations require capabilities but nodes can never offer them")
	case s.TaskTimeDist < DistUniform || s.TaskTimeDist > DistPareto:
		return fmt.Errorf("workload: unknown task time distribution %d", s.TaskTimeDist)
	case s.ConfigPopularity < 0:
		return fmt.Errorf("workload: negative config popularity exponent")
	case s.Arrival < ArrivalUniform || s.Arrival > ArrivalPoisson:
		// Gamma/Weibull need a cv, which only scenario files carry;
		// a bare Spec cannot express them.
		return fmt.Errorf("workload: arrival %v requires a scenario file", s.Arrival)
	}
	if s.NodeAreaHigh < s.ConfigAreaLow {
		return fmt.Errorf("workload: largest node (%d) smaller than smallest config (%d): nothing schedulable",
			s.NodeAreaHigh, s.ConfigAreaLow)
	}
	return nil
}

// TableII returns the paper's default parameter values (Table II)
// for the given node count and task count.
func TableII(nodes, tasks int) Spec {
	return Spec{
		Tasks:               tasks,
		NextTaskMaxInterval: 50,
		Arrival:             ArrivalUniform,
		TaskReqTimeLow:      100,
		TaskReqTimeHigh:     100000,
		ClosestMatchPct:     0.15,
		Configs:             50,
		ConfigAreaLow:       200,
		ConfigAreaHigh:      2000,
		ConfigTimeLow:       10,
		ConfigTimeHigh:      20,
		Nodes:               nodes,
		NodeAreaLow:         1000,
		NodeAreaHigh:        4000,
	}
}
