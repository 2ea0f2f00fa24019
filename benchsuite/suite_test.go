package main

import (
	"encoding/json"
	"os"
	"sort"
	"testing"

	"dreamsim"
	"dreamsim/internal/rng"
)

func TestHistQuantileWithinOneBucket(t *testing.T) {
	r := rng.New(7)
	for _, n := range []int{1, 2, 17, 1000, 50000} {
		var h logHist
		xs := make([]int64, n)
		for i := range xs {
			// Log-uniform over 1 ns .. ~1 s, the span of per-call latencies.
			xs[i] = int64(1 << r.Intn(30))
			xs[i] += r.Int64Range(0, xs[i])
			h.add(xs[i])
		}
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		for _, q := range []float64{0.5, 0.99} {
			got, want := h.quantile(q), nearestRank(xs, q)
			if bucketOf(got) != bucketOf(want) {
				t.Errorf("n=%d q=%v: histogram %d (bucket %d), nearest rank %d (bucket %d)",
					n, q, got, bucketOf(got), want, bucketOf(want))
			}
		}
	}
}

// nearestRank is the reference quantile: the smallest value of the
// sorted slice s with at least q of the samples at or below it.
func nearestRank(s []int64, q float64) int64 {
	return s[rankOf(q, uint64(len(s)))-1]
}

func TestBucketBounds(t *testing.T) {
	for v := int64(0); v < 1<<16; v++ {
		i := bucketOf(v)
		if lo := bucketLow(i); lo > v || bucketOf(lo) != i {
			t.Fatalf("value %d: bucket %d has lower bound %d", v, i, lo)
		}
		if next := bucketLow(i + 1); next <= v {
			t.Fatalf("value %d: bucket %d ends at %d", v, i, next)
		}
	}
}

// TestCoreSelfTimeIsSpanMinusChildren checks the attribution rule on a
// synthetic trace: the event-loop span minus the busy time of every
// wrapped layer folded under it.
func TestCoreSelfTimeIsSpanMinusChildren(t *testing.T) {
	traces := []simTrace{
		{run: 10_000, events: 100, policy: &tracedPolicy{}, source: &tracedSource{}},
		{run: 5_000, events: 50, policy: &tracedPolicy{}, source: &tracedSource{}},
	}
	traces[0].source.next.add(1_000)
	traces[0].policy.decide.add(2_000)
	traces[0].policy.retry.add(500)
	traces[1].policy.decide.add(1_500)
	traces[1].policy.decide.add(1_500)
	m := layerMetrics(passResult{traces: traces, tracedSpeed: 1, plainSpeed: 1}, 0, 1)
	wantSelf := float64(15_000-1_000-2_000-500-3_000) / 1e9
	if got := m["core.self_s"].Value; got != wantSelf {
		t.Errorf("core.self_s = %v, want %v", got, wantSelf)
	}
	if got, want := m["core.self_ns_per_event"].Value, wantSelf*1e9/150; got != want {
		t.Errorf("core.self_ns_per_event = %v, want %v", got, want)
	}
	if got := m["sched.decide.busy_s"].Value; got != 5_000/1e9 {
		t.Errorf("sched.decide.busy_s = %v, want 5e-6", got)
	}
	if got := m["sched.decide.calls"].Value; got != 3 {
		t.Errorf("sched.decide.calls = %v, want 3", got)
	}
}

// TestWorkloadDigests drives every workload at tiny size: the traced
// and plain passes must reproduce the timed rep's digests, and a
// checkpointed run must reproduce the uninterrupted one.
func TestWorkloadDigests(t *testing.T) {
	const seed = 3
	ip := dreamsim.EffectiveIntraParallel(0)
	for _, w := range workloads(true) {
		t.Run(w.name, func(t *testing.T) {
			results, _, err := w.rep(seed)
			if err != nil {
				t.Fatal(err)
			}
			want := digests(results)
			if len(want) != len(w.sims) {
				t.Fatalf("%d results for %d sims", len(want), len(w.sims))
			}
			var tr tracer
			for i, sm := range w.sims {
				st, err := tracedSim(&tr, 0, sm, seed, ip)
				if err != nil {
					t.Fatal(err)
				}
				if st.digest != want[i] {
					t.Errorf("sim %d: traced digest %s, untraced %s", i, st.digest, want[i])
				}
				p, err := runPlainSim(sm, seed, ip)
				if err != nil {
					t.Fatal(err)
				}
				if p.digest != want[i] {
					t.Errorf("sim %d: plain digest %s, untraced %s", i, p.digest, want[i])
				}
			}
			ref := w.sims[w.largest].public(seed)
			uninterrupted, err := dreamsim.Run(ref)
			if err != nil {
				t.Fatal(err)
			}
			var ck ckptSamples
			resumed, taken, err := chain(ref, 97, &ck)
			if err != nil {
				t.Fatal(err)
			}
			if taken == 0 || len(ck.pauseNs) != taken {
				t.Fatalf("the chain took %d checkpoints and %d samples", taken, len(ck.pauseNs))
			}
			got := digest(resumed.TableI(), resumed.Phases)
			if u := digest(uninterrupted.TableI(), uninterrupted.Phases); got != u || got != want[w.largest] {
				t.Errorf("resumed digest %s, uninterrupted %s, rep %s", got, u, want[w.largest])
			}
		})
	}
}

// tinyGolden computes a workload's digests at every simulation seed
// of the golden seed, as testdata/golden.json holds them at full size.
func tinyGolden(t *testing.T, w *workloadSpec) [][]string {
	var g [][]string
	for _, seed := range simSeeds(goldenSeed) {
		results, _, err := w.rep(seed)
		if err != nil {
			t.Fatal(err)
		}
		g = append(g, digests(results))
	}
	return g
}

func TestTamperedDigestFailsTheRun(t *testing.T) {
	w := findWorkload(workloads(true), "stream-5k")
	golden := tinyGolden(t, w)
	cfg := config{w: w, seed: goldenSeed, seconds: 0.05, golden: golden}
	rec, err := runSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 0 || exitCode(rec) != 0 {
		t.Fatalf("untampered run: %d of %d failed, exit %d: %v", rec.Failed, rec.Attempted, exitCode(rec), rec.Failures)
	}

	golden[0][0] = "0123456789abcdef0123456789abcdef"
	rec, err = runSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed == 0 || exitCode(rec) == 0 {
		t.Fatalf("tampered run: %d of %d failed, exit %d", rec.Failed, rec.Attempted, exitCode(rec))
	}
	if line := contractResult(rec); line.Correct || line.Failed != rec.Failed {
		t.Errorf("result line %+v does not report the failure", line)
	}
}

// TestBenchmarkJSONMatchesSuite keeps BENCHMARK.json and the code in
// step: the workloads it names, and the metrics each mode prints.
func TestBenchmarkJSONMatchesSuite(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) []string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		sort.Strings(out)
		return out
	}
	var ws []string
	for _, w := range workloads(false) {
		ws = append(ws, w.name)
	}
	sort.Strings(ws)
	assertSame(t, "workloads", names(b.Workloads), ws)

	for _, traced := range []bool{false, true} {
		w := findWorkload(workloads(true), "burst-mix")
		rec, err := runSuite(config{w: w, seed: 2, seconds: 0.05, trace: traced})
		if err != nil {
			t.Fatal(err)
		}
		if rec.Failed != 0 {
			t.Fatalf("traced=%v: %v", traced, rec.Failures)
		}
		rec.Metrics["peak_rss_mb"] = metric{Value: 1, Unit: "MB"}
		var got []string
		for name := range contractResult(rec).Metrics {
			got = append(got, name)
		}
		sort.Strings(got)
		want := names(b.EndToEnd)
		if traced {
			want = names(b.PerLayer)
		}
		assertSame(t, "metrics", got, want)
	}
}

func assertSame(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %v, BENCHMARK.json has %v", what, got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: got %v, BENCHMARK.json has %v", what, got, want)
		}
	}
}

func TestSpansFile(t *testing.T) {
	w := findWorkload(workloads(true), "paper-sweep")
	path := t.TempDir() + "/spans.json"
	rec, err := runSuite(config{w: w, seed: 2, seconds: 0.05, trace: true, spans: path})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Failed != 0 {
		t.Fatal(rec.Failures)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr tracer
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, s := range tr.Spans {
		count[s.Name]++
		if s.End < s.Start {
			t.Errorf("span %+v ends before it starts", s)
		}
	}
	for _, name := range []string{"core.new", "core.run", "core.finish", "report.render", "workload.population", "resinfo.new"} {
		if count[name] != len(w.sims) {
			t.Errorf("%d %s spans, want one per simulation (%d)", count[name], name, len(w.sims))
		}
	}
	if count["snapshot.encode"] == 0 || count["snapshot.encode"] != count["snapshot.restore"] {
		t.Errorf("snapshot spans: %d encode, %d restore", count["snapshot.encode"], count["snapshot.restore"])
	}
	if len(tr.Folded) != 3*len(w.sims) {
		t.Errorf("%d folded records, want 3 per simulation", len(tr.Folded))
	}
}
