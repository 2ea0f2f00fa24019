package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dreamsim"
)

// childEnv switches the test binary into the dreamsweep command
// itself, so the tests below drive its flag routing.
const childEnv = "DREAMSWEEP_CMD_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runCmd runs dreamsweep with args in a child process and returns its
// standard output; a non-zero exit fails the test.
func runCmd(t *testing.T, args ...string) string {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &stderr
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			t.Fatalf("exit %d:\n%s%s", exit.ExitCode(), out.String(), stderr.String())
		}
		t.Fatal(err)
	}
	return out.String()
}

// fastScenario is a two-class scenario whose interval line, 5 ticks,
// is far below the flag default of 50.
const fastScenario = `dreamsim-scenario v1
tasks 400
interval 5
class batch
  fraction 0.6
  arrival poisson
  reqtime 1000 100000 lognormal
  area 800 2000
end
class interactive
  fraction 0.4
  arrival poisson
  reqtime 100 5000 uniform
  area 200 800
end
`

// noIntervalScenario is fastScenario without its interval line, which
// a scenario file may leave out.
var noIntervalScenario = strings.Replace(fastScenario, "interval 5\n", "", 1)

// scenarioParams is what both scenario modes should run: the defaults
// with Tasks and NextTaskMaxInterval left to the scenario's lines
// unless interval is non-zero.
func scenarioParams(text string, interval int64) dreamsim.Params {
	p := dreamsim.DefaultParams()
	p.Parallelism = 1
	p.Tasks, p.NextTaskMaxInterval = 0, interval
	p.ScenarioText = text
	return p
}

// TestScenarioIntervalGoverns: in scenario-set mode (-scenarios) and in
// the figure sweep (-scenario), the scenario file's interval line sets
// the arrival interval, as it does for dreamsim, instead of the flag
// default that a non-zero Params field would impose. A file without
// the line runs at the default interval.
func TestScenarioIntervalGoverns(t *testing.T) {
	grid := dreamsim.ScaledTaskCounts(2000)
	for _, c := range []struct {
		file, text string
		ownLine    bool // the file's interval differs from the default
	}{
		{"fast.scn", fastScenario, true},
		{"noint.scn", noIntervalScenario, false},
	} {
		path := filepath.Join(t.TempDir(), c.file)
		if err := os.WriteFile(path, []byte(c.text), 0o644); err != nil {
			t.Fatal(err)
		}
		setTable := func(interval int64) string {
			cells, err := dreamsim.RunScenarioSet(scenarioParams(c.text, interval),
				[]dreamsim.NamedScenario{{Name: "fast", Text: c.text}}, nil)
			if err != nil {
				t.Fatalf("%s: %v", c.file, err)
			}
			return dreamsim.CompareTable(cells[0].Full, cells[0].Partial)
		}
		figTable := func(interval int64) string {
			fig, err := dreamsim.RunFigure("6a", grid, scenarioParams(c.text, interval))
			if err != nil {
				t.Fatalf("%s: %v", c.file, err)
			}
			return fig.Table()
		}

		want, atDefault := setTable(0), setTable(50)
		if (want != atDefault) != c.ownLine {
			t.Fatalf("%s: scenario-set table at the file's interval differs from the default's: %v, want %v",
				c.file, want != atDefault, c.ownLine)
		}
		if out := runCmd(t, "-scenarios", path, "-parallel", "1"); !strings.Contains(out, want) {
			t.Errorf("%s: -scenarios output lacks the table of the scenario's own interval:\n%s\nwant:\n%s", c.file, out, want)
		}

		want, atDefault = figTable(0), figTable(50)
		if (want != atDefault) != c.ownLine {
			t.Fatalf("%s: figure table at the file's interval differs from the default's: %v, want %v",
				c.file, want != atDefault, c.ownLine)
		}
		out := runCmd(t, "-fig", "6a", "-scale", "2000", "-no-plot", "-parallel", "1", "-scenario", path)
		if !strings.Contains(out, want) {
			t.Errorf("%s: -scenario output lacks the figure table of the scenario's own interval:\n%s\nwant:\n%s", c.file, out, want)
		}
	}
}
