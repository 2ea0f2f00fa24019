package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// bench is the part of BENCHMARK.json that --compare judges by.
type bench struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadRecords reads a file of suite output (the stdout of one or more
// runs) and groups its records by workload; other lines are skipped.
func loadRecords(path string) (map[string][]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string][]record{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var rec record
		if json.Unmarshal(sc.Bytes(), &rec) != nil || rec.Suite != suiteID {
			continue
		}
		out[rec.Workload] = append(out[rec.Workload], rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no %s records", path, suiteID)
	}
	return out, nil
}

// sideOf is one file's reading of one metric on one workload. Several
// runs give the median and quartiles across runs; a single run gives
// its own reps' quartiles when the metric has them.
func sideOf(recs []record, name string) (summary, bool) {
	var vals []float64
	var one metric
	for _, r := range recs {
		if m, ok := r.Metrics[name]; ok {
			vals = append(vals, m.Value)
			one = m
		}
	}
	switch {
	case len(vals) == 0:
		return summary{}, false
	case len(vals) == 1 && one.Q1 != nil && one.Q3 != nil:
		return summary{Median: one.Value, Q1: *one.Q1, Q3: *one.Q3, N: one.N}, true
	default:
		return summarize(vals), true
	}
}

// delta is one metric × workload comparison.
type delta struct {
	Workload, Metric string
	Old, New         summary
	// Worse is the fractional change in the metric's bad direction.
	Worse   float64
	Bound   float64
	Verdict string // "ok", "REGRESSION" or "unresolved"
}

// spread is a reading's interquartile range relative to its median.
func spread(s summary) float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// compareRecords judges every end-to-end metric on every workload both
// sides ran, each on its own: a change is a regression only when the
// new median is worse than the old by more than the metric's bound,
// and unresolved when either side's spread is wider than the bound.
func compareRecords(b bench, oldRecs, newRecs map[string][]record) []delta {
	names := make([]string, 0, len(oldRecs))
	for w := range oldRecs {
		if _, ok := newRecs[w]; ok {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	var out []delta
	for _, w := range names {
		for _, m := range b.EndToEnd {
			o, okO := sideOf(oldRecs[w], m.Name)
			n, okN := sideOf(newRecs[w], m.Name)
			if !okO || !okN {
				continue
			}
			d := delta{Workload: w, Metric: m.Name, Old: o, New: n, Bound: m.Bound, Verdict: "ok"}
			if o.Median != 0 {
				d.Worse = (n.Median - o.Median) / o.Median
				if m.Better == "higher" {
					d.Worse = -d.Worse
				}
			}
			switch {
			case spread(o) > m.Bound || spread(n) > m.Bound:
				d.Verdict = "unresolved"
			case d.Worse > m.Bound:
				d.Verdict = "REGRESSION"
			}
			out = append(out, d)
		}
	}
	return out
}

// runCompare implements --compare: it prints one row per workload ×
// metric and returns 1 when any row is a regression.
func runCompare(w *strings.Builder, benchPath, oldPath, newPath string) (int, error) {
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return 2, err
	}
	var b bench
	if err := json.Unmarshal(data, &b); err != nil {
		return 2, fmt.Errorf("%s: %w", benchPath, err)
	}
	oldRecs, err := loadRecords(oldPath)
	if err != nil {
		return 2, err
	}
	newRecs, err := loadRecords(newPath)
	if err != nil {
		return 2, err
	}
	code := 0
	fmt.Fprintf(w, "%-12s %-18s %14s %14s %8s %8s %8s  %s\n",
		"workload", "metric", "old", "new", "worse", "bound", "spread", "verdict")
	for _, d := range compareRecords(b, oldRecs, newRecs) {
		fmt.Fprintf(w, "%-12s %-18s %14.6g %14.6g %+7.1f%% %7.1f%% %7.1f%%  %s\n",
			d.Workload, d.Metric, d.Old.Median, d.New.Median, 100*d.Worse, 100*d.Bound,
			100*max(spread(d.Old), spread(d.New)), d.Verdict)
		if d.Verdict == "REGRESSION" {
			code = 1
		}
	}
	return code, nil
}
