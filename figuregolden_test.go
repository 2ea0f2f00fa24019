package dreamsim_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"dreamsim"
	"dreamsim/internal/invariant"
)

// TestFigureCSVGolden regenerates the seed-1 Table II grid, the run
// behind `dreamsweep -fig all -scale 100000 -out results/`, and
// byte-compares every figure CSV with the committed results/fig*.csv
// that EXPERIMENTS.md reads. Regenerate intentionally with:
//
//	DREAMSIM_UPDATE_GOLDEN=1 go test -run TestFigureCSVGolden .
func TestFigureCSVGolden(t *testing.T) {
	if testing.Short() || invariant.RaceEnabled {
		t.Skip("the full grid runs 100k-task cells; skipped under -short and -race")
	}
	base := dreamsim.DefaultParams()
	base.Seed = 1
	base.Parallelism = 2
	m, err := dreamsim.RunMatrix(base, nil, dreamsim.ScaledTaskCounts(100000), nil)
	if err != nil {
		t.Fatal(err)
	}
	figs, err := m.Figures()
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != len(dreamsim.FigureIDs()) {
		t.Fatalf("grid drew %d figures, want %d", len(figs), len(dreamsim.FigureIDs()))
	}
	update := os.Getenv(updateGoldenEnv) != ""
	for _, fig := range figs {
		got := []byte(fig.CSV())
		path := filepath.Join("results", "fig"+string(fig.ID)+".csv")
		if update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing figure golden (run with %s=1 to create): %v", updateGoldenEnv, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("figure %s diverged from %s; rerun with %s=1 if the change is intended\n%s",
				fig.ID, path, updateGoldenEnv, firstDiff(got, want))
		}
	}
}
