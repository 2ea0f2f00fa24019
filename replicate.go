package dreamsim

import (
	"fmt"
	"math"

	"dreamsim/internal/report"
	"dreamsim/internal/stats"
)

// MetricStats summarises one Table I metric across replicated runs.
type MetricStats struct {
	Name   string
	Mean   float64
	StdDev float64
	Min    float64
	Max    float64
	// CI95 is the half-width of the normal-approximation 95%
	// confidence interval of the mean.
	CI95 float64
}

// RunReplicated runs the same parameters under each seed and
// aggregates every Table I metric across the runs — the standard way
// to attach confidence to simulator outputs (the paper reports single
// runs; replication shows its orderings are not seed artifacts).
// Seeds are independent units: p.Parallelism of them run
// concurrently, and the aggregation always folds results in seed
// order, so the statistics are identical at any worker count.
func RunReplicated(p Params, seeds []uint64) ([]MetricStats, error) {
	if len(seeds) == 0 {
		return nil, fmt.Errorf("dreamsim: RunReplicated needs at least one seed")
	}
	units := make([]sweepUnit, 0, len(seeds))
	for _, seed := range seeds {
		p.Seed = seed
		units = append(units, sweepUnit{p, fmt.Sprintf("seed %d", seed)})
	}
	results, err := sweep(p.Parallelism, units, nil)
	if err != nil {
		return nil, err
	}
	vals := map[string][]float64{}
	var order []string
	for _, res := range results {
		for _, row := range report.MetricRows(res.rep) {
			if _, seen := vals[row.Name]; !seen {
				order = append(order, row.Name)
			}
			vals[row.Name] = append(vals[row.Name], row.Value)
		}
	}
	out := make([]MetricStats, 0, len(order))
	for _, name := range order {
		s := stats.Summarize(vals[name])
		out = append(out, MetricStats{
			Name:   name,
			Mean:   s.Mean,
			StdDev: s.StdDev(),
			Min:    s.Min,
			Max:    s.Max,
			CI95:   1.96 * s.StdDev() / math.Sqrt(float64(s.N)),
		})
	}
	return out, nil
}

// Seeds returns n deterministic, well-separated seeds derived from
// base — convenience for RunReplicated.
func Seeds(base uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = base + uint64(i)*0x9e3779b97f4a7c15
	}
	return out
}

// PairedMetric is the paired full-vs-partial comparison of one
// Table I metric across a seed ensemble.
type PairedMetric struct {
	Name string
	// FullMean and PartialMean are the per-scenario means.
	FullMean, PartialMean float64
	// MeanDiff is mean(full - partial); CI95 its confidence interval
	// half-width; T the paired t statistic.
	MeanDiff, CI95, T float64
	// Consistent reports that every seed ordered the scenarios the
	// same way — the strongest small-sample evidence. A metric equal
	// on every seed is consistent too.
	Consistent bool
	// Significant05 reports that the 95% CI of the difference
	// excludes zero.
	Significant05 bool
}

// ComparePaired runs both reconfiguration scenarios under each seed
// (each pair over identical inputs) and reports, per Table I metric,
// the paired difference with confidence — statistical backing for
// the paper's single-run comparisons. Seed i's full run is unit 2i and
// its partial run unit 2i+1; the units fan out across p.Parallelism
// workers, and the statistics fold in seed order, so they are
// identical at any worker count.
func ComparePaired(p Params, seeds []uint64) ([]PairedMetric, error) {
	if len(seeds) < 2 {
		return nil, fmt.Errorf("dreamsim: ComparePaired needs at least two seeds")
	}
	units := make([]sweepUnit, 0, 2*len(seeds))
	for _, seed := range seeds {
		p.Seed = seed
		units = appendPair(units, p, fmt.Sprintf("seed %d", seed))
	}
	res, err := sweep(p.Parallelism, units, nil)
	if err != nil {
		return nil, err
	}
	fullVals := map[string][]float64{}
	partVals := map[string][]float64{}
	var order []string
	for i := 0; i < len(res); i += 2 {
		for _, row := range report.MetricRows(res[i].rep) {
			if _, seen := fullVals[row.Name]; !seen {
				order = append(order, row.Name)
			}
			fullVals[row.Name] = append(fullVals[row.Name], row.Value)
		}
		for _, row := range report.MetricRows(res[i+1].rep) {
			partVals[row.Name] = append(partVals[row.Name], row.Value)
		}
	}
	out := make([]PairedMetric, 0, len(order))
	for _, name := range order {
		pr, err := stats.Paired(fullVals[name], partVals[name])
		if err != nil {
			return nil, err
		}
		pm := PairedMetric{
			Name:          name,
			FullMean:      stats.Summarize(fullVals[name]).Mean,
			PartialMean:   stats.Summarize(partVals[name]).Mean,
			MeanDiff:      pr.MeanDiff,
			CI95:          pr.CI95,
			T:             pr.T,
			Consistent:    pr.AllPositive || pr.AllNegative || (pr.MeanDiff == 0 && pr.CI95 == 0),
			Significant05: math.Abs(pr.MeanDiff) > pr.CI95,
		}
		out = append(out, pm)
	}
	return out, nil
}
