package workload

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dreamsim/internal/fault"
	"dreamsim/internal/model"
	"dreamsim/internal/rng"
)

// testConfigs builds a deterministic configurations list spanning the
// paper's area range.
func testConfigs(n int) []*model.Config {
	out := make([]*model.Config, n)
	for i := range out {
		out[i] = &model.Config{No: i, ReqArea: model.Area(200 + i*1800/max(n-1, 1)), ConfigTime: 15}
	}
	return out
}

// testSpec is a valid paper-shaped Spec for compiler tests.
func testSpec(tasks int) Spec {
	return Spec{
		Tasks:               tasks,
		NextTaskMaxInterval: 50,
		TaskReqTimeLow:      100,
		TaskReqTimeHigh:     100000,
		ClosestMatchPct:     0.15,
		Configs:             50,
		ConfigAreaLow:       200,
		ConfigAreaHigh:      2000,
		ConfigTimeLow:       10,
		ConfigTimeHigh:      20,
		Nodes:               100,
		NodeAreaLow:         1000,
		NodeAreaHigh:        4000,
	}
}

func TestParseScenarioFull(t *testing.T) {
	scn, err := ParseScenario(`# a comment
dreamsim-scenario v1
name full-demo
tasks 500
interval 40
arrival gamma 2   # bursty default

class batch
  fraction 0.7
  arrival poisson
  reqtime 1000 100000 lognormal
  area 200 1200
  popularity 0.8
  closest-match 0.1
end

class fast
end

timeline
  0 0.5
  100 1.5
end

event spike 10 20 3
event maintenance 30 40 0 9
event storm 50 60 12
`)
	if err != nil {
		t.Fatal(err)
	}
	want := &Scenario{
		Name:     "full-demo",
		Tasks:    500,
		Interval: 40,
		Arrival:  ArrivalSpec{Set: true, Kind: ArrivalGamma, CV: 2},
		Classes: []ClassSpec{
			{Name: "batch", Fraction: 0.7, Arrival: ArrivalSpec{Set: true, Kind: ArrivalPoisson},
				ReqTimeLow: 1000, ReqTimeHigh: 100000, TimeDist: DistLognormal,
				AreaLow: 200, AreaHigh: 1200, Popularity: 0.8, ClosestMatch: 0.1},
			{Name: "fast", Fraction: 1, Popularity: -1, ClosestMatch: -1},
		},
		Timeline: []TimePoint{{At: 0, Mult: 0.5}, {At: 100, Mult: 1.5}},
		Events: []ScheduledEvent{
			{Kind: EventSpike, Start: 10, End: 20, Mult: 3},
			{Kind: EventMaintenance, Start: 30, End: 40, NodeLo: 0, NodeHi: 9},
			{Kind: EventStorm, Start: 50, End: 60, Count: 12},
		},
	}
	if !reflect.DeepEqual(scn, want) {
		t.Fatalf("parsed scenario:\n%+v\nwant:\n%+v", scn, want)
	}
	if err := scn.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if !scn.MultiClass() || !scn.HasFaultEvents() || !scn.hasSpikes() {
		t.Error("MultiClass/HasFaultEvents/hasSpikes misreported")
	}
}

func TestParseScenarioErrors(t *testing.T) {
	cases := map[string]struct{ text, wantErr string }{
		"no-directive":      {"tasks 100\n", "first line must be"},
		"missing-directive": {"", "missing"},
		"dup-key":           {"dreamsim-scenario v1\ntasks 1\ntasks 2\n", `duplicate "tasks"`},
		"bad-number":        {"dreamsim-scenario v1\ntasks many\n", "bad task count"},
		"unknown-keyword":   {"dreamsim-scenario v1\nfoo bar\n", `unknown keyword "foo"`},
		"unterminated":      {"dreamsim-scenario v1\nclass a\n", "unterminated class block"},
		"class-dup":         {"dreamsim-scenario v1\nclass a\n  fraction 1\n  fraction 2\nend\n", `duplicate "fraction"`},
		"cv-on-uniform":     {"dreamsim-scenario v1\narrival uniform 2\n", "takes no cv"},
		"bad-event":         {"dreamsim-scenario v1\nevent quake 1 2 3\n", "unknown event kind"},
		"timeline-arity":    {"dreamsim-scenario v1\ntimeline\n  1 2 3\nend\n", "timeline point"},
		"line-number":       {"dreamsim-scenario v1\n\n\ntasks x\n", "line 4"},
	}
	for name, tc := range cases {
		_, err := ParseScenario(tc.text)
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.wantErr)
		}
	}
}

func TestScenarioValidateErrors(t *testing.T) {
	valid := func() *Scenario {
		return &Scenario{Classes: []ClassSpec{
			{Name: "a", Fraction: 1, Popularity: -1, ClosestMatch: -1},
		}}
	}
	cases := map[string]struct {
		mutate  func(*Scenario)
		wantErr string
	}{
		"bad-name":      {func(s *Scenario) { s.Name = "no spaces" }, "invalid name"},
		"neg-tasks":     {func(s *Scenario) { s.Tasks = -1 }, "negative task count"},
		"bad-class":     {func(s *Scenario) { s.Classes[0].Name = "x/y" }, "invalid class name"},
		"dup-class":     {func(s *Scenario) { s.Classes = append(s.Classes, s.Classes[0]) }, "duplicate class"},
		"zero-fraction": {func(s *Scenario) { s.Classes[0].Fraction = 0 }, "not positive"},
		"cv-range":      {func(s *Scenario) { s.Arrival = ArrivalSpec{Set: true, Kind: ArrivalGamma, CV: 500} }, "outside [0.01, 100]"},
		"reqtime-range": {func(s *Scenario) { s.Classes[0].ReqTimeLow, s.Classes[0].ReqTimeHigh = 10, 5 }, "reqtime range"},
		"area-range":    {func(s *Scenario) { s.Classes[0].AreaLow, s.Classes[0].AreaHigh = 9, 3 }, "area range"},
		"closest-range": {func(s *Scenario) { s.Classes[0].ClosestMatch = 1.5 }, "closest-match"},
		"timeline-order": {func(s *Scenario) {
			s.Timeline = []TimePoint{{At: 10, Mult: 1}, {At: 10, Mult: 2}}
		}, "strictly increasing"},
		"timeline-mult": {func(s *Scenario) { s.Timeline = []TimePoint{{At: 0, Mult: 0}} }, "multiplier"},
		"spike-empty": {func(s *Scenario) {
			s.Events = []ScheduledEvent{{Kind: EventSpike, Start: 5, End: 5, Mult: 2}}
		}, "empty"},
		"storm-count": {func(s *Scenario) {
			s.Events = []ScheduledEvent{{Kind: EventStorm, Start: 0, End: 1, Count: 0}}
		}, "storm count"},
		"maint-nodes": {func(s *Scenario) {
			s.Events = []ScheduledEvent{{Kind: EventMaintenance, Start: 0, End: 5, NodeLo: 7, NodeHi: 2}}
		}, "node range"},
	}
	for name, tc := range cases {
		s := valid()
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: base scenario invalid: %v", name, err)
		}
		tc.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %q does not mention %q", name, err, tc.wantErr)
		}
	}
}

// flagStream is the flag-level task stream written out plainly from
// the paper's generation rules, in the draw order flag-level runs have
// always used: per task, the arrival gap (uniform over [1, interval]
// or exponential with the same mean), the closest-match coin, then
// either a synthetic Cpref and area or a uniformly drawn configuration,
// then a uniform t_required.
func flagStream(r *rng.RNG, spec *Spec, configs []*model.Config) []model.Task {
	out := make([]model.Task, spec.Tasks)
	var now int64
	for i := range out {
		if spec.Arrival == ArrivalPoisson {
			mean := float64(1+spec.NextTaskMaxInterval) / 2
			now += max(int64(r.ExpRate(1/mean)+0.5), 1)
		} else {
			now += r.Int64Range(1, spec.NextTaskMaxInterval)
		}
		t := &out[i]
		t.No, t.CreateTime = i, now
		if r.Bool(spec.ClosestMatchPct) {
			t.PrefConfig = len(configs) + r.Intn(1<<20)
			t.NeededArea = r.Int64Range(spec.ConfigAreaLow, spec.ConfigAreaHigh)
		} else {
			cfg := configs[r.Intn(len(configs))]
			t.PrefConfig, t.NeededArea = cfg.No, cfg.ReqArea
		}
		t.RequiredTime = r.Int64Range(spec.TaskReqTimeLow, spec.TaskReqTimeHigh)
		t.Data = t.NeededArea * 64
	}
	return out
}

// requireStream fails unless src emits exactly want.
func requireStream(t *testing.T, what string, src TaskSource, want []model.Task) {
	t.Helper()
	for i := range want {
		got, ok := src.Next()
		if !ok {
			t.Fatalf("%s: stream ended after %d of %d tasks", what, i, len(want))
		}
		w := want[i]
		if got.No != w.No || got.CreateTime != w.CreateTime || got.PrefConfig != w.PrefConfig ||
			got.NeededArea != w.NeededArea || got.RequiredTime != w.RequiredTime ||
			got.Data != w.Data || got.Class != 0 {
			t.Fatalf("%s: task %d is %+v, want %+v", what, i, *got, w)
		}
	}
	if _, ok := src.Next(); ok {
		t.Fatalf("%s: stream runs past %d tasks", what, len(want))
	}
}

// TestDegenerateScenarioIsFlagStream pins the seeding rule to the
// plainly written flag stream: the flag-level source, an event-only
// scenario and a single-class restatement of the flag surface all draw
// from the task-stream RNG as flag runs always have, for both
// flag-level arrival processes and at the interval cap, where the
// source's float gap arithmetic must still be exact.
func TestDegenerateScenarioIsFlagStream(t *testing.T) {
	configs := testConfigs(20)
	events, err := ParseScenario("dreamsim-scenario v1\nevent maintenance 10 20 0 3\n")
	if err != nil {
		t.Fatal(err)
	}
	for _, arrival := range []ArrivalKind{ArrivalUniform, ArrivalPoisson} {
		for _, interval := range []int64{50, MaxInterval} {
			spec := testSpec(300)
			spec.Arrival, spec.NextTaskMaxInterval = arrival, interval
			want := flagStream(rng.New(11), &spec, configs)
			for what, scn := range map[string]*Scenario{
				"flag-level (no scenario)": nil,
				"event-only scenario":      events,
				"lifted flag spec":         ScenarioFromSpec(&spec),
			} {
				what = fmt.Sprintf("%s, %v arrivals, interval %d", what, arrival, interval)
				src, err := NewScenarioSource(rng.New(11), scn, &spec, configs)
				if err != nil {
					t.Fatal(err)
				}
				if !src.shared {
					t.Fatalf("%s: compiled onto class substreams", what)
				}
				requireStream(t, what, src, want)
			}
		}
	}
}

// TestScenarioSourceMultiClass checks the compiled multi-class stream:
// arrival times are non-decreasing overall, every class emits, area
// filters bind, and recycling works through the free list.
// TestExtremeRateFractions: a class's share of the arrivals follows
// its rate fraction however far apart the fractions are. Against a
// fraction 1e300 times its own, a class's thinned mean gap exceeds
// int64; clamped to the longest gap, the class draws the fewest tasks
// under every arrival kind, with the tiny fraction its own or the huge
// one the other class's.
func TestExtremeRateFractions(t *testing.T) {
	spec := testSpec(2000)
	configs := testConfigs(20)
	for _, kind := range []string{"uniform", "poisson", "gamma 2", "weibull 0.5"} {
		for _, fracs := range [][2]string{{"1", "1e-300"}, {"1e300", "1"}} {
			scn, err := ParseScenario(fmt.Sprintf(`dreamsim-scenario v1
arrival %s
class common
  fraction %s
end
class rare
  fraction %s
end
`, kind, fracs[0], fracs[1]))
			if err != nil {
				t.Fatal(err)
			}
			src, err := NewScenarioSource(rng.New(1), scn, &spec, configs)
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int, 2)
			for {
				task, ok := src.Next()
				if !ok {
					break
				}
				counts[task.Class]++
			}
			if counts[1] >= counts[0] {
				t.Errorf("arrival %s, fractions %s and %s: rare drew %d of %d tasks, common %d",
					kind, fracs[0], fracs[1], counts[1], spec.Tasks, counts[0])
			}
		}
	}
}

func TestScenarioSourceMultiClass(t *testing.T) {
	spec := testSpec(400)
	configs := testConfigs(20)
	scn, err := ParseScenario(`dreamsim-scenario v1
class batch
  fraction 0.5
  arrival gamma 2
  area 200 900
end
class fast
  fraction 0.5
  arrival weibull 0.5
end
timeline
  0 0.5
  2000 2
end
`)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewScenarioSource(rng.New(3), scn, &spec, configs)
	if err != nil {
		t.Fatal(err)
	}
	if got := src.ClassNames(); !reflect.DeepEqual(got, []string{"batch", "fast"}) {
		t.Fatalf("ClassNames = %v", got)
	}
	counts := make([]int, 2)
	last := int64(0)
	var recycler Recycler = src
	for i := 0; ; i++ {
		task, ok := src.Next()
		if !ok {
			break
		}
		if task.No != i {
			t.Fatalf("task %d numbered %d", i, task.No)
		}
		if task.CreateTime < last {
			t.Fatalf("task %d arrives at %d, before previous %d", i, task.CreateTime, last)
		}
		last = task.CreateTime
		if task.Class < 0 || task.Class > 1 {
			t.Fatalf("task %d class %d", i, task.Class)
		}
		counts[task.Class]++
		if task.Class == 0 && task.PrefConfig < len(configs) {
			area := configs[task.PrefConfig].ReqArea
			if area < 200 || area > 900 {
				t.Fatalf("batch task %d drew config area %d outside its filter", i, area)
			}
		}
		recycler.Release(task) // stream must survive aggressive recycling
	}
	if n := counts[0] + counts[1]; n != 400 {
		t.Fatalf("emitted %d tasks, want 400", n)
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("class counts %v: every class must emit", counts)
	}
	if src.Recycled() == 0 {
		t.Error("free list never served a task despite recycling")
	}
}

// TestScenarioTimelineMult pins the piecewise-linear interpolation and
// the spike windows.
func TestScenarioTimelineMult(t *testing.T) {
	s := &ScenarioSource{
		timeline: []TimePoint{{At: 100, Mult: 1}, {At: 200, Mult: 3}},
		spikes:   []ScheduledEvent{{Kind: EventSpike, Start: 150, End: 175, Mult: 10}},
	}
	// Query ticks are chosen so every interpolated value is float-exact
	// (f in {0.5, 0.75}).
	cases := []struct {
		at   int64
		want float64
	}{
		{0, 1}, {100, 1}, {150, 2 * 10}, {175, 2.5}, {200, 3}, {999, 3},
	}
	for _, tc := range cases {
		if got := s.mult(tc.at); got != tc.want {
			t.Errorf("mult(%d) = %v, want %v", tc.at, got, tc.want)
		}
	}
}

// TestScenarioFaultLowering checks the maintenance and storm events
// compile to balanced crash/recover scripts.
func TestScenarioFaultLowering(t *testing.T) {
	scn := &Scenario{Events: []ScheduledEvent{
		{Kind: EventMaintenance, Start: 100, End: 200, NodeLo: 2, NodeHi: 4},
		{Kind: EventStorm, Start: 300, End: 400, Count: 6},
		{Kind: EventSpike, Start: 1, End: 2, Mult: 3}, // must not lower
	}}
	events := scn.FaultEvents(rng.New(5), 10)
	crashes, recovers := 0, 0
	crashed := map[int]bool{}
	for _, ev := range events {
		switch ev.Kind {
		case fault.KindCrash:
			crashes++
			crashed[ev.Node] = true
			if ev.Node < 0 || ev.Node >= 10 {
				t.Errorf("crash victim %d outside population", ev.Node)
			}
		case fault.KindRecover:
			recovers++
			if !crashed[ev.Node] {
				t.Errorf("node %d recovers without crashing", ev.Node)
			}
		default:
			t.Errorf("unexpected event kind %v", ev.Kind)
		}
	}
	if crashes != 3+6 {
		t.Errorf("%d crashes lowered, want 9 (3 maintenance + 6 storm)", crashes)
	}
	// Maintenance recovers each of its 3 nodes; the storm recovers each
	// DISTINCT victim once.
	if recovers < 3+1 || recovers > 3+6 {
		t.Errorf("%d recoveries lowered, want between 4 and 9", recovers)
	}
	// Node-count clamp: a maintenance range beyond the population must
	// not emit events for ghosts.
	clamped := &Scenario{Events: []ScheduledEvent{
		{Kind: EventMaintenance, Start: 1, End: 2, NodeLo: 8, NodeHi: 99},
	}}
	for _, ev := range clamped.FaultEvents(rng.New(5), 10) {
		if ev.Node >= 10 {
			t.Errorf("clamped maintenance touched ghost node %d", ev.Node)
		}
	}
}

// TestApplyDefaults checks the flag-vs-scenario resolution: scenario
// values fill only unset Spec knobs.
func TestApplyDefaults(t *testing.T) {
	scn := &Scenario{Tasks: 500, Interval: 40,
		Arrival: ArrivalSpec{Set: true, Kind: ArrivalPoisson}}
	spec := Spec{}
	scn.ApplyDefaults(&spec)
	if spec.Tasks != 500 || spec.NextTaskMaxInterval != 40 || spec.Arrival != ArrivalPoisson {
		t.Errorf("defaults not applied: %+v", spec)
	}
	explicit := Spec{Tasks: 99, NextTaskMaxInterval: 7}
	scn.ApplyDefaults(&explicit)
	if explicit.Tasks != 99 || explicit.NextTaskMaxInterval != 7 {
		t.Errorf("explicit values overridden: %+v", explicit)
	}
	// A scenario's interval line meets the Spec's cap.
	huge := &Scenario{Interval: MaxInterval + 1}
	capped := testSpec(10)
	capped.NextTaskMaxInterval = 0
	huge.ApplyDefaults(&capped)
	if err := capped.Validate(); err == nil || !strings.Contains(err.Error(), "exceeds the limit") {
		t.Errorf("interval line %d above the cap: Validate = %v", huge.Interval, err)
	}
	// A bursty scenario-level arrival must NOT leak into the Spec: the
	// Spec's validator rejects gamma/weibull (scenario-only kinds).
	bursty := &Scenario{Arrival: ArrivalSpec{Set: true, Kind: ArrivalGamma, CV: 2}}
	spec2 := Spec{}
	bursty.ApplyDefaults(&spec2)
	if spec2.Arrival != ArrivalUniform {
		t.Errorf("gamma arrival leaked into Spec.Arrival = %v", spec2.Arrival)
	}
}

// TestClassSeedIndependence pins the substream scheme directly: a
// class's seed depends on the base and its own name only.
func TestClassSeedIndependence(t *testing.T) {
	if classSeed(1, "batch") == classSeed(1, "interactive") {
		t.Error("distinct names share a seed")
	}
	if classSeed(1, "batch") == classSeed(2, "batch") {
		t.Error("distinct bases share a seed")
	}
	if classSeed(7, "batch") != classSeed(7, "batch") {
		t.Error("classSeed not deterministic")
	}
}
