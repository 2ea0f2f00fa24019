package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"dreamsim"
)

// TestGoldenDigests checks testdata/golden.json, the digests a run at
// --seed 1 must reproduce, against the first simulation seed of every
// full-size workload. Regenerate every seed deliberately with
//
//	DREAMSIM_UPDATE_GOLDEN=1 go test -run TestGoldenDigests .
func TestGoldenDigests(t *testing.T) {
	update := os.Getenv("DREAMSIM_UPDATE_GOLDEN") == "1"
	if testing.Short() && !update {
		t.Skip("runs full-size simulations")
	}
	seeds := simSeeds(goldenSeed)
	count := 1
	if update {
		count = subSeeds
	}
	got := goldenDigests{}
	for _, w := range workloads(false) {
		for _, seed := range seeds[:count] {
			var results []dreamsim.Result
			var err error
			if w.kind == repChain {
				// A chained rep must reproduce the uninterrupted run.
				var r dreamsim.Result
				r, err = dreamsim.Run(w.sims[0].public(seed))
				results = []dreamsim.Result{r}
			} else {
				results, _, err = w.rep(seed)
			}
			if err != nil {
				t.Fatalf("%s seed %d: %v", w.name, seed, err)
			}
			got[w.name] = append(got[w.name], digests(results))
		}
	}
	if update {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", "golden.json")
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden updated: %s", path)
		return
	}
	want, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		if len(want[name]) == 0 {
			t.Errorf("%s: no golden digests (regenerate with DREAMSIM_UPDATE_GOLDEN=1)", name)
			continue
		}
		assertSame(t, name, g[0], want[name][0])
	}
}
