package dreamsim

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dreamsim/internal/model"
	"dreamsim/internal/rng"
	"dreamsim/internal/workload"
)

// multiClassScenario is the inline reference spec the public scenario
// tests share: two classes, bursty arrivals, a diurnal timeline and a
// load spike.
const multiClassScenario = `dreamsim-scenario v1
name test-diurnal
tasks 1200
interval 50

class batch
  fraction 0.6
  arrival gamma 2
  reqtime 1000 80000 lognormal
  area 200 1500
end

class interactive
  fraction 0.4
  arrival weibull 0.6
  reqtime 100 5000 uniform
end

timeline
  0 0.5
  4000 1.5
  9000 0.5
end

event spike 2000 2600 3
`

// TestScenarioEquivalenceGate is the legacy-surface contract: a
// scenario mechanically lifted from the flag parameters
// (ScenarioFromSpec) must produce a Result deeply equal — and an XML
// report byte-identical — to running the flags directly. It covers
// the paper-default surface plus the Poisson/lognormal/popularity
// variants the lift must round-trip.
func TestScenarioEquivalenceGate(t *testing.T) {
	variants := map[string]func(*Params){
		"paper-defaults": func(p *Params) {},
		"poisson":        func(p *Params) { p.PoissonArrivals = true },
		"lognormal-zipf": func(p *Params) {
			p.TaskTimeDistribution = "lognormal"
			p.ConfigPopularity = 0.8
		},
	}
	for name, tweak := range variants {
		p := DefaultParams()
		p.Nodes = 60
		p.Tasks = 1200
		tweak(&p)

		ref, err := Run(p)
		if err != nil {
			t.Fatalf("%s: flag run: %v", name, err)
		}

		spec := p.spec()
		q := p
		q.ScenarioText = workload.FormatScenario(workload.ScenarioFromSpec(&spec))
		got, err := Run(q)
		if err != nil {
			t.Fatalf("%s: scenario run: %v", name, err)
		}
		if !reflect.DeepEqual(ref, got) {
			t.Errorf("%s: scenario result diverged from flag run\nflags    %+v\nscenario %+v", name, ref, got)
		}
		var rx, gx bytes.Buffer
		if err := ref.WriteXML(&rx); err != nil {
			t.Fatal(err)
		}
		if err := got.WriteXML(&gx); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rx.Bytes(), gx.Bytes()) {
			t.Errorf("%s: scenario XML not byte-identical to the flag run", name)
		}
	}
}

// TestScenarioStreamEquivalence extends the recycling contract to
// multi-class scenario runs: Run over the pooled scenario source must
// agree deeply and byte-for-byte with the same tasks replayed from a
// SliceSource, in both reconfiguration scenarios.
func TestScenarioStreamEquivalence(t *testing.T) {
	for _, partial := range []bool{false, true} {
		p := DefaultParams()
		p.Nodes = 60
		p.Tasks = 0 // scenario sets it
		p.PartialReconfig = partial
		p.ScenarioText = multiClassScenario

		pooled, err := Run(p)
		if err != nil {
			t.Fatal(err)
		}
		if len(pooled.Classes) < 2 {
			t.Fatalf("partial=%v: %d class rows, want a multi-class run", partial, len(pooled.Classes))
		}
		requireSameRun(t, fmt.Sprintf("partial=%v scenario", partial), pooled, replayRun(t, p))
	}
}

// TestScenarioClassAccounting checks the per-class rows are a true
// partition of the run totals: every generated/completed/discarded/
// lost task lands in exactly one class row.
func TestScenarioClassAccounting(t *testing.T) {
	p := DefaultParams()
	p.Nodes = 60
	p.ScenarioText = multiClassScenario

	res, err := Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) != 2 {
		t.Fatalf("got %d class rows, want 2: %+v", len(res.Classes), res.Classes)
	}
	if res.Classes[0].Name != "batch" || res.Classes[1].Name != "interactive" {
		t.Fatalf("class names %q/%q, want batch/interactive", res.Classes[0].Name, res.Classes[1].Name)
	}
	var gen, done, disc, lost int64
	for _, c := range res.Classes {
		gen += c.Generated
		done += c.Completed
		disc += c.Discarded
		lost += c.Lost
		if c.Generated == 0 {
			t.Errorf("class %q generated no tasks", c.Name)
		}
	}
	if gen != res.TotalTasks {
		t.Errorf("class Generated sums to %d, want TotalTasks %d", gen, res.TotalTasks)
	}
	if done != res.CompletedTasks {
		t.Errorf("class Completed sums to %d, want CompletedTasks %d", done, res.CompletedTasks)
	}
	if disc != res.TotalDiscardedTasks {
		t.Errorf("class Discarded sums to %d, want TotalDiscardedTasks %d", disc, res.TotalDiscardedTasks)
	}
	if lost != res.TasksLost {
		t.Errorf("class Lost sums to %d, want TasksLost %d", lost, res.TasksLost)
	}
}

// TestScenarioClassIsolation is the substream contract: adding a third
// class must not perturb the existing classes' per-class outcomes'
// dependence on their own draws. The absolute counts change (the new
// class competes for tasks and fabric), but the per-class substreams
// are keyed by name, which we verify directly at the workload layer:
// the first N draws of class "batch" are identical whether or not
// "extra" exists.
func TestScenarioClassIsolation(t *testing.T) {
	base := `dreamsim-scenario v1
tasks 600
interval 40
class batch
  fraction 0.5
  arrival gamma 1.5
  reqtime 500 20000 uniform
end
class interactive
  fraction 0.5
  arrival poisson
  reqtime 100 2000 uniform
end
`
	extended := base + `class extra
  fraction 0.25
  arrival weibull 0.8
end
`
	configs := make([]*model.Config, 20)
	for i := range configs {
		configs[i] = &model.Config{No: i, ReqArea: model.Area(200 + 90*i), ConfigTime: 15}
	}
	collect := func(text string) map[string][][3]int64 {
		p := DefaultParams()
		p.Nodes = 40
		p.Tasks = 0
		spec := p.spec()
		scn, err := workload.ParseScenario(text)
		if err != nil {
			t.Fatal(err)
		}
		scn.ApplyDefaults(&spec)
		s, err := workload.NewScenarioSource(rng.New(7), scn, &spec, configs)
		if err != nil {
			t.Fatal(err)
		}
		out := map[string][][3]int64{}
		names := s.ClassNames()
		for {
			task, ok := s.Next()
			if !ok {
				break
			}
			name := names[task.Class]
			out[name] = append(out[name], [3]int64{int64(task.NeededArea), task.RequiredTime, int64(task.PrefConfig)})
		}
		return out
	}
	before := collect(base)
	after := collect(extended)
	for _, class := range []string{"batch", "interactive"} {
		b, a := before[class], after[class]
		n := len(b)
		if len(a) < n {
			n = len(a)
		}
		if n == 0 {
			t.Fatalf("class %q emitted no tasks in one of the runs", class)
		}
		for i := 0; i < n; i++ {
			if b[i] != a[i] {
				t.Fatalf("class %q draw %d changed when class \"extra\" was added: %v -> %v", class, i, b[i], a[i])
			}
		}
	}
}
