package main

import (
	"strings"
	"testing"
)

func TestCompareFixtures(t *testing.T) {
	var out strings.Builder
	code, err := runCompare(&out, "testdata/compare/bench.json", "testdata/compare/old.out", "testdata/compare/new.out")
	if err != nil {
		t.Fatal(err)
	}
	if code != 1 {
		t.Errorf("exit code %d, want 1 for the stream-5k regression", code)
	}
	verdicts := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		f := strings.Fields(line)
		verdicts[f[0]+" "+f[1]] = f[len(f)-1]
	}
	want := map[string]string{
		// Three runs a side: medians 245k vs 235k, 4% worse, inside the bound.
		"burst-mix tasks_per_s": "ok",
		"burst-mix peak_rss_mb": "ok",
		"paper-sweep setup_s":   "ok",
		// 23% worse, but the new side's reps spread over 100%.
		"paper-sweep tasks_per_s": "unresolved",
		"paper-sweep peak_rss_mb": "ok",
		// 17% worse against a 25% bound.
		"stream-5k setup_s": "ok",
		// 22% worse with tight quartiles on both sides.
		"stream-5k tasks_per_s": "REGRESSION",
		"stream-5k peak_rss_mb": "ok",
	}
	if len(verdicts) != len(want) {
		t.Errorf("rows %v, want %v", verdicts, want)
	}
	for k, v := range want {
		if verdicts[k] != v {
			t.Errorf("%s: %q, want %q\n%s", k, verdicts[k], v, out.String())
		}
	}
}

func TestCompareSameFileIsClean(t *testing.T) {
	var out strings.Builder
	code, err := runCompare(&out, "testdata/compare/bench.json", "testdata/compare/old.out", "testdata/compare/old.out")
	if err != nil || code != 0 {
		t.Fatalf("code %d, err %v:\n%s", code, err, out.String())
	}
	if strings.Contains(out.String(), "REGRESSION") || strings.Contains(out.String(), "unresolved") {
		t.Errorf("a file compared with itself:\n%s", out.String())
	}
}

func TestCompareRejectsFileWithoutRecords(t *testing.T) {
	var out strings.Builder
	code, err := runCompare(&out, "testdata/compare/bench.json", "testdata/compare/bench.json", "testdata/compare/new.out")
	if err == nil || code == 0 {
		t.Fatalf("code %d, err %v", code, err)
	}
}
