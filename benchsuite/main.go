// Command benchsuite is the dreambench suite: each invocation runs one
// named workload of the simulator in a fresh process, times it end to
// end with tracing off, checks every output against golden digests,
// and with --trace 1 adds a traced pass that attributes host time to
// the engine's layers. See README.md for the workloads, the metrics
// and how each layer metric moves an end-to-end one.
//
// Usage, from the repository root:
//
//	bash benchsuite/run.sh --workload stream-5k --seed 1 --seconds 20 --trace 0
//	bash benchsuite/run.sh --workload paper-sweep --seed 2 --seconds 20 --trace 1 --spans spans.json
//	bash benchsuite/run.sh --compare old.out new.out
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the line before it is the
// full record (quartiles, sample counts, environment) that --compare
// reads. The exit code is non-zero when any output check failed.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

//go:embed testdata/golden.json
var goldenJSON []byte

// goldenSeed is the benchmark seed the committed digests cover.
const goldenSeed = 1

// goldenDigests maps workload → simulation seed index → simulation →
// digest, for --seed goldenSeed at full size.
type goldenDigests map[string][][]string

func loadGolden() (goldenDigests, error) {
	var g goldenDigests
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("testdata/golden.json: %w", err)
	}
	return g, nil
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: paper-sweep, stream-5k, burst-mix or ckpt-resume")
		seed    = flag.Uint64("seed", 1, "benchmark seed (>= 1); seed N simulates seeds 4N-3 .. 4N")
		seconds = flag.Float64("seconds", 20, "how long the timed reps run")
		trace   = flag.Int("trace", 0, "1 adds the traced pass and prints the per-layer metrics")
		spans   = flag.String("spans", "", "with --trace 1, write the recorded spans to this JSON file")
		compare = flag.Bool("compare", false, "compare two files of suite output by the bounds in BENCHMARK.json: --compare OLD NEW")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchsuite: --compare needs two files: OLD NEW")
			os.Exit(2)
		}
		var out strings.Builder
		code, err := runCompare(&out, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		fmt.Print(out.String())
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
		}
		os.Exit(code)
	}

	w := findWorkload(workloads(false), *name)
	switch {
	case w == nil:
		fmt.Fprintf(os.Stderr, "benchsuite: unknown workload %q\n", *name)
		os.Exit(2)
	case *seed < 1:
		fmt.Fprintln(os.Stderr, "benchsuite: --seed must be >= 1")
		os.Exit(2)
	case *seconds <= 0:
		fmt.Fprintln(os.Stderr, "benchsuite: --seconds must be positive")
		os.Exit(2)
	case *trace != 0 && *trace != 1:
		fmt.Fprintln(os.Stderr, "benchsuite: --trace takes 0 or 1")
		os.Exit(2)
	}
	cfg := config{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, spans: *spans}

	if cfg.seed == goldenSeed {
		g, err := loadGolden()
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(1)
		}
		// A workload missing from the file fails every check.
		cfg.golden = g[w.name]
		if cfg.golden == nil {
			cfg.golden = [][]string{}
		}
	}
	rec, err := runSuite(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsuite:", err)
		os.Exit(1)
	}
	printSummary(rec)
	for _, v := range []any{rec, contractResult(rec)} {
		line, err := json.Marshal(v)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsuite:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
	}
	os.Exit(exitCode(rec))
}

// exitCode is 0 only when every operation ran and reproduced its
// expected output.
func exitCode(rec record) int {
	if rec.Failed > 0 || rec.Attempted == 0 {
		return 1
	}
	return 0
}

// contractLine is the last line of output: the metrics of the run's
// mode (end-to-end untraced, per-layer traced) as value and unit.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func contractResult(rec record) contractLine {
	out := contractLine{
		Correct: exitCode(rec) == 0, Attempted: rec.Attempted, Failed: rec.Failed,
		Metrics: map[string]contractMetric{},
	}
	for name, m := range rec.Metrics {
		// Every metric that is not end-to-end is a per-layer one.
		if isEndToEnd(name) != rec.Traced {
			out.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
		}
	}
	return out
}

// printSummary writes a readable table of the record to standard error.
func printSummary(rec record) {
	e := rec.Env
	fmt.Fprintf(os.Stderr, "%s seed %d (sim seeds %v): %d reps in %gs at host speed %.3f, %s GOMAXPROCS=%d NumCPU=%d IntraParallel=%d\n",
		rec.Workload, rec.Seed, e.SimSeeds, e.Reps, e.Seconds, e.HostSpeed, e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.IntraParallel)
	names := make([]string, 0, len(rec.Metrics))
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		spread := ""
		if m.Q1 != nil && m.Q3 != nil {
			spread = fmt.Sprintf("  [q1 %.6g, q3 %.6g]", *m.Q1, *m.Q3)
		}
		fmt.Fprintf(os.Stderr, "  %-42s %14.6g %-8s n=%d%s\n", n, m.Value, m.Unit, m.N, spread)
	}
	fmt.Fprintf(os.Stderr, "  checks: %d attempted, %d failed (error_frac %g)\n",
		rec.Attempted, rec.Failed, ratio(float64(rec.Failed), float64(rec.Attempted)))
	for _, f := range rec.Failures {
		fmt.Fprintln(os.Stderr, "  FAIL", f)
	}
}
