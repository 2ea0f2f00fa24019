package dreamsim_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dreamsim"
)

// TestTimelineGolden pins the monitoring outputs of two runs byte for
// byte: the streamed timeline CSV of a 64-sample window, and the
// sparklines of the windowed and the full-series recorder, with a
// digest of the full series. One run is a faulted 200-node partial
// run, so down nodes appear in the samples; the other is the
// diurnal-burst scenario, whose two traffic classes add the per-class
// columns. Regenerate intentionally with:
//
//	DREAMSIM_UPDATE_GOLDEN=1 go test -run TestTimelineGolden .
func TestTimelineGolden(t *testing.T) {
	faulted := dreamsim.DefaultParams()
	faulted.Tasks = 3000
	faulted.PartialReconfig = true
	faulted.FaultCrashRate = 0.0005
	faulted.FaultMeanDowntime = 300

	scn, err := dreamsim.LoadScenario(filepath.Join(exampleScenarioDir, "diurnal-burst.scn"))
	if err != nil {
		t.Fatal(err)
	}
	diurnal := dreamsim.DefaultParams()
	diurnal.Tasks, diurnal.NextTaskMaxInterval = 0, 0 // the scenario's lines govern
	diurnal.PartialReconfig = true
	diurnal.ScenarioText = scn.Text

	update := os.Getenv(updateGoldenEnv) != ""
	for _, tc := range []struct {
		name string
		p    dreamsim.Params
	}{{"faulted-200", faulted}, {"diurnal-burst", diurnal}} {
		t.Run(tc.name, func(t *testing.T) {
			csvPath := filepath.Join(t.TempDir(), "timeline.csv")
			p := tc.p
			p.SampleEvery = 1
			p.WindowSamples = 64
			p.TimelinePath = csvPath
			windowed, err := dreamsim.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			csv, err := os.ReadFile(csvPath)
			if err != nil {
				t.Fatal(err)
			}
			p.WindowSamples, p.TimelinePath = 0, ""
			full, err := dreamsim.Run(p)
			if err != nil {
				t.Fatal(err)
			}
			if tc.name == "faulted-200" && full.NodeCrashes == 0 {
				t.Fatal("the faulted run crashed no node")
			}
			if tc.name == "diurnal-burst" && len(windowed.Windows[0].ClassRunning) < 2 {
				t.Fatal("the scenario run carries no per-class census")
			}
			var text bytes.Buffer
			fmt.Fprintf(&text, "windowed (%d windows):\n%s\n", windowed.WindowsTotal, windowed.TimelineText())
			fmt.Fprintf(&text, "full series:\n%s\n", full.TimelineText())
			series := sha256.New()
			for _, pt := range full.Timeline {
				fmt.Fprintf(series, "%d %d %d %d %x\n", pt.Time, pt.RunningTasks, pt.Suspended, pt.WastedArea, pt.Utilization)
			}
			fmt.Fprintf(&text, "full series: %d samples, sha256 %x\n", len(full.Timeline), series.Sum(nil))

			for _, out := range []struct {
				path string
				got  []byte
			}{
				{filepath.Join("testdata", "timeline", tc.name+".csv"), csv},
				{filepath.Join("testdata", "timeline", tc.name+".txt"), text.Bytes()},
			} {
				if update {
					if err := os.MkdirAll(filepath.Dir(out.path), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(out.path, out.got, 0o644); err != nil {
						t.Fatal(err)
					}
					continue
				}
				want, err := os.ReadFile(out.path)
				if err != nil {
					t.Fatalf("missing timeline golden (run with %s=1 to create): %v", updateGoldenEnv, err)
				}
				if !bytes.Equal(out.got, want) {
					t.Errorf("%s diverged; rerun with %s=1 if the change is intended\n%s",
						out.path, updateGoldenEnv, firstDiff(out.got, want))
				}
			}
		})
	}
}
