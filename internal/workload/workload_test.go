package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"dreamsim/internal/model"
	"dreamsim/internal/rng"
)

func spec(tasks int) *Spec {
	s := TableII(200, tasks)
	return &s
}

func TestTableIIDefaults(t *testing.T) {
	s := TableII(100, 1000)
	if err := s.Validate(); err != nil {
		t.Fatalf("Table II defaults invalid: %v", err)
	}
	if s.Nodes != 100 || s.Tasks != 1000 {
		t.Fatalf("shape not propagated: %+v", s)
	}
	// Spot-check the published values.
	if s.NextTaskMaxInterval != 50 || s.Configs != 50 ||
		s.ConfigAreaLow != 200 || s.ConfigAreaHigh != 2000 ||
		s.NodeAreaLow != 1000 || s.NodeAreaHigh != 4000 ||
		s.TaskReqTimeLow != 100 || s.TaskReqTimeHigh != 100000 ||
		s.ConfigTimeLow != 10 || s.ConfigTimeHigh != 20 ||
		s.ClosestMatchPct != 0.15 {
		t.Fatalf("Table II values drifted: %+v", s)
	}
}

func TestSpecValidateRejects(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Tasks = -1 },
		func(s *Spec) { s.NextTaskMaxInterval = 0 },
		func(s *Spec) { s.TaskReqTimeLow = 0 },
		func(s *Spec) { s.TaskReqTimeHigh = 50 },
		func(s *Spec) { s.ClosestMatchPct = 1.5 },
		func(s *Spec) { s.ClosestMatchPct = -0.1 },
		func(s *Spec) { s.Configs = 0 },
		func(s *Spec) { s.Configs = MaxConfigs + 1 },
		func(s *Spec) { s.ConfigAreaLow = 0 },
		func(s *Spec) { s.ConfigAreaHigh = 100 },
		func(s *Spec) { s.ConfigTimeLow = -1 },
		func(s *Spec) { s.ConfigTimeHigh = 5 },
		func(s *Spec) { s.Nodes = 0 },
		func(s *Spec) { s.Nodes = MaxNodes + 1 },
		func(s *Spec) { s.Nodes = 1 << 62 },
		func(s *Spec) { s.NodeAreaLow = 0 },
		func(s *Spec) { s.NodeAreaHigh = 500 },
		func(s *Spec) { s.NodeAreaHigh = 150; s.NodeAreaLow = 100 },
	}
	for i, mutate := range bad {
		s := TableII(100, 1000)
		mutate(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d accepted: %+v", i, s)
		}
	}
	s := TableII(MaxNodes, 1000)
	s.Configs = MaxConfigs
	if err := s.Validate(); err != nil {
		t.Errorf("counts at the caps rejected: %v", err)
	}
}

func TestArrivalKindString(t *testing.T) {
	if ArrivalUniform.String() != "uniform" || ArrivalPoisson.String() != "poisson" {
		t.Fatal("ArrivalKind strings wrong")
	}
	if !strings.Contains(ArrivalKind(7).String(), "7") {
		t.Fatal("unknown kind string wrong")
	}
}

func TestGenConfigsRanges(t *testing.T) {
	r := rng.New(1)
	s := spec(0)
	configs := GenConfigs(r, s)
	if len(configs) != 50 {
		t.Fatalf("got %d configs", len(configs))
	}
	for _, c := range configs {
		if c.ReqArea < 200 || c.ReqArea > 2000 {
			t.Fatalf("config area %d out of range", c.ReqArea)
		}
		if c.ConfigTime < 10 || c.ConfigTime > 20 {
			t.Fatalf("config time %d out of range", c.ConfigTime)
		}
		if c.BSize <= 0 || len(c.Params) == 0 || c.Ptype == "" {
			t.Fatalf("config attributes missing: %+v", c)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGenNodesRanges(t *testing.T) {
	r := rng.New(2)
	s := spec(0)
	nodes := GenNodes(r, s, true)
	if len(nodes) != 200 {
		t.Fatalf("got %d nodes", len(nodes))
	}
	for _, n := range nodes {
		if n.TotalArea < 1000 || n.TotalArea > 4000 {
			t.Fatalf("node area %d out of range", n.TotalArea)
		}
		if !n.PartialMode || !n.Blank() {
			t.Fatalf("node mode/state wrong: %v", n)
		}
	}
	full := GenNodes(rng.New(2), s, false)
	if full[0].PartialMode {
		t.Fatal("full-mode flag not applied")
	}
	// Same seed, same geometry regardless of mode.
	for i := range nodes {
		if nodes[i].TotalArea != full[i].TotalArea {
			t.Fatal("node geometry differs across modes with same seed")
		}
	}
}

func TestCapabilityGeneration(t *testing.T) {
	s := spec(0)
	s.CapKinds = []string{"bram", "dsp"}
	s.NodeCapProb = 0.5
	s.ConfigCapProb = 0.3
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	nodes := GenNodes(rng.New(5), s, true)
	withCaps := 0
	for _, n := range nodes {
		for _, c := range n.Caps {
			if c != "bram" && c != "dsp" {
				t.Fatalf("unknown capability %q", c)
			}
		}
		if len(n.Caps) > 0 {
			withCaps++
		}
	}
	// P(at least one of two caps at 0.5) = 0.75; 200 nodes.
	if withCaps < 100 || withCaps == len(nodes) {
		t.Fatalf("node capability distribution implausible: %d of %d", withCaps, len(nodes))
	}
	configs := GenConfigs(rng.New(6), s)
	requiring := 0
	for _, c := range configs {
		if len(c.RequiredCaps) > 0 {
			requiring++
		}
	}
	if requiring == 0 || requiring == len(configs) {
		t.Fatalf("config requirement distribution implausible: %d of %d", requiring, len(configs))
	}
	// Extension off: no caps anywhere.
	s2 := spec(0)
	for _, n := range GenNodes(rng.New(5), s2, true) {
		if len(n.Caps) != 0 {
			t.Fatal("caps generated with extension off")
		}
	}
	// Impossible setup rejected.
	s.NodeCapProb = 0
	if err := s.Validate(); err == nil {
		t.Fatal("impossible caps setup accepted")
	}
	s.NodeCapProb = 2
	if err := s.Validate(); err == nil {
		t.Fatal("probability > 1 accepted")
	}
}

func TestGeneratorStream(t *testing.T) {
	r := rng.New(3)
	s := spec(500)
	configs := GenConfigs(r.Split(), s)
	g, err := NewGenerator(r, s, configs)
	if err != nil {
		t.Fatal(err)
	}
	cfgByNo := map[int]*model.Config{}
	for _, c := range configs {
		cfgByNo[c.No] = c
	}
	last := int64(0)
	missing := 0
	count := 0
	for {
		task, ok := g.Next()
		if !ok {
			break
		}
		count++
		if task.CreateTime <= last {
			t.Fatalf("arrival times not strictly increasing: %d after %d", task.CreateTime, last)
		}
		if task.CreateTime-last > s.NextTaskMaxInterval {
			t.Fatalf("gap %d exceeds max interval", task.CreateTime-last)
		}
		last = task.CreateTime
		if task.RequiredTime < s.TaskReqTimeLow || task.RequiredTime > s.TaskReqTimeHigh {
			t.Fatalf("t_required %d out of range", task.RequiredTime)
		}
		if cfg, ok := cfgByNo[task.PrefConfig]; ok {
			if task.NeededArea != cfg.ReqArea {
				t.Fatalf("task area %d != config area %d", task.NeededArea, cfg.ReqArea)
			}
		} else {
			missing++
			if task.NeededArea < s.ConfigAreaLow || task.NeededArea > s.ConfigAreaHigh {
				t.Fatalf("closest-match task area %d out of range", task.NeededArea)
			}
		}
		if err := task.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if count != 500 || g.Emitted() != 500 {
		t.Fatalf("emitted %d tasks", count)
	}
	// ~15% closest-match tasks; allow generous slack on 500 draws.
	frac := float64(missing) / 500
	if math.Abs(frac-0.15) > 0.07 {
		t.Errorf("closest-match share %v, want ~0.15", frac)
	}
	// Exhausted generator stays exhausted.
	if _, ok := g.Next(); ok {
		t.Fatal("generator emitted past Tasks")
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	s := spec(100)
	mk := func() []*model.Task {
		r := rng.New(42)
		configs := GenConfigs(r.Split(), s)
		g, _ := NewGenerator(r, s, configs)
		return Drain(g)
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("lengths differ")
	}
	for i := range a {
		if a[i].CreateTime != b[i].CreateTime || a[i].PrefConfig != b[i].PrefConfig ||
			a[i].RequiredTime != b[i].RequiredTime || a[i].NeededArea != b[i].NeededArea {
			t.Fatalf("task %d differs across identical seeds", i)
		}
	}
}

func TestGeneratorPoissonArrivals(t *testing.T) {
	s := spec(2000)
	s.Arrival = ArrivalPoisson
	r := rng.New(5)
	configs := GenConfigs(r.Split(), s)
	g, _ := NewGenerator(r, s, configs)
	tasks := Drain(g)
	if len(tasks) != 2000 {
		t.Fatalf("emitted %d", len(tasks))
	}
	// Mean gap should approximate (1+50)/2 = 25.5.
	mean := float64(tasks[len(tasks)-1].CreateTime) / float64(len(tasks))
	if mean < 22 || mean > 29 {
		t.Errorf("poisson mean gap %v, want ~25.5", mean)
	}
	last := int64(0)
	for _, task := range tasks {
		if task.CreateTime <= last-1 && task.CreateTime < last {
			t.Fatal("arrivals moved backwards")
		}
		last = task.CreateTime
	}
}

func TestGeneratorRejectsBadInput(t *testing.T) {
	s := spec(10)
	if _, err := NewGenerator(rng.New(1), s, nil); err == nil {
		t.Fatal("empty config list accepted")
	}
	bad := *s
	bad.Nodes = 0
	if _, err := NewGenerator(rng.New(1), &bad, GenConfigs(rng.New(2), s)); err == nil {
		t.Fatal("invalid spec accepted")
	}
}

func TestTaskTimeDistributions(t *testing.T) {
	for _, dist := range []DistKind{DistUniform, DistLognormal, DistPareto} {
		s := spec(3000)
		s.TaskTimeDist = dist
		r := rng.New(11)
		configs := GenConfigs(r.Split(), s)
		g, err := NewGenerator(r, s, configs)
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		n := 0
		for {
			task, ok := g.Next()
			if !ok {
				break
			}
			if task.RequiredTime < s.TaskReqTimeLow || task.RequiredTime > s.TaskReqTimeHigh {
				t.Fatalf("%s: t_required %d out of range", dist, task.RequiredTime)
			}
			sum += float64(task.RequiredTime)
			n++
		}
		mean := sum / float64(n)
		switch dist {
		case DistUniform:
			if mean < 45000 || mean > 56000 { // midpoint ~50050
				t.Errorf("uniform mean %v", mean)
			}
		case DistLognormal:
			// Median ~ geometric midpoint sqrt(100*100000) ~ 3162;
			// the mean sits well below the uniform mean.
			if mean > 30000 {
				t.Errorf("lognormal mean %v not heavy-tail shaped", mean)
			}
		case DistPareto:
			// Pareto(100, 1.5) clamped: mean far below uniform.
			if mean > 20000 {
				t.Errorf("pareto mean %v not heavy-tail shaped", mean)
			}
		}
	}
	if DistUniform.String() != "uniform" || DistLognormal.String() != "lognormal" ||
		DistPareto.String() != "pareto" || DistKind(9).String() == "" {
		t.Fatal("DistKind strings wrong")
	}
	bad := spec(10)
	bad.TaskTimeDist = DistKind(-1)
	if err := bad.Validate(); err == nil {
		t.Fatal("invalid distribution accepted")
	}
}

func TestConfigPopularityZipf(t *testing.T) {
	s := spec(5000)
	s.ConfigPopularity = 1.2
	s.ClosestMatchPct = 0
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	r := rng.New(13)
	configs := GenConfigs(r.Split(), s)
	g, err := NewGenerator(r, s, configs)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for {
		task, ok := g.Next()
		if !ok {
			break
		}
		counts[task.PrefConfig]++
	}
	// Config 0 must dominate config 10 heavily under Zipf(1.2).
	if counts[0] < 3*counts[10] {
		t.Errorf("popularity skew weak: C0=%d C10=%d", counts[0], counts[10])
	}
	bad := spec(10)
	bad.ConfigPopularity = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative popularity accepted")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	s := spec(200)
	r := rng.New(7)
	configs := GenConfigs(r.Split(), s)
	g, _ := NewGenerator(r, s, configs)
	tasks := Drain(g)

	var buf bytes.Buffer
	if err := WriteTrace(&buf, tasks); err != nil {
		t.Fatal(err)
	}
	tr := NewTraceReader(&buf)
	got := Drain(tr)
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	if len(got) != len(tasks) {
		t.Fatalf("round trip lost tasks: %d != %d", len(got), len(tasks))
	}
	for i := range got {
		a, b := tasks[i], got[i]
		if a.No != b.No || a.CreateTime != b.CreateTime || a.RequiredTime != b.RequiredTime ||
			a.PrefConfig != b.PrefConfig || a.NeededArea != b.NeededArea || a.Data != b.Data {
			t.Fatalf("task %d mismatch: %+v vs %+v", i, a, b)
		}
	}
}

func TestTraceReaderRejects(t *testing.T) {
	cases := map[string]string{
		"missing header":  "task 0 5 100 1 500 0\n",
		"empty":           "",
		"malformed line":  "# dreamsim-trace v1\ntask zero x\n",
		"time regression": "# dreamsim-trace v1\ntask 0 10 100 1 500 0\ntask 1 5 100 1 500 0\n",
		"invalid task":    "# dreamsim-trace v1\ntask 0 5 0 1 500 0\n",
	}
	for name, in := range cases {
		tr := NewTraceReader(strings.NewReader(in))
		Drain(tr)
		if tr.Err() == nil {
			t.Errorf("%s: no error reported", name)
		}
		// The stream stays stopped.
		if _, ok := tr.Next(); ok {
			t.Errorf("%s: reader continued after error", name)
		}
	}
}

func TestTraceSkipsCommentsAndBlanks(t *testing.T) {
	in := "# dreamsim-trace v1\n\n# a comment\ntask 3 5 100 1 500 64\n\n"
	tr := NewTraceReader(strings.NewReader(in))
	tasks := Drain(tr)
	if tr.Err() != nil {
		t.Fatal(tr.Err())
	}
	if len(tasks) != 1 || tasks[0].No != 3 || tasks[0].Data != 64 {
		t.Fatalf("parsed %v", tasks)
	}
}

func TestWriteTraceRejectsInvalid(t *testing.T) {
	bad := model.NewTask(0, 0, 1, 100, 0) // zero area
	var buf bytes.Buffer
	if err := WriteTrace(&buf, []*model.Task{bad}); err == nil {
		t.Fatal("invalid task written")
	}
}
