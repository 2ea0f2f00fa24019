package fault

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"dreamsim/internal/invariant"
	"dreamsim/internal/rng"
	"dreamsim/internal/sim"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindCrash:         "crash",
		KindRecover:       "recover",
		KindReconfigFault: "cfail",
		Kind(42):          "Kind(42)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestPlanEnabled(t *testing.T) {
	if (Plan{}).Enabled() {
		t.Error("zero plan reports enabled")
	}
	enabled := []Plan{
		{CrashRate: 0.1, MeanDowntime: 10},
		{ReconfigFaultRate: 0.1},
		{Script: []Event{{At: 1, Kind: KindReconfigFault}}},
	}
	for i, p := range enabled {
		if !p.Enabled() {
			t.Errorf("plan %d reports disabled", i)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	good := []Plan{
		{},
		{CrashRate: 0.01, MeanDowntime: 100},
		{ReconfigFaultRate: 0.5},
		{Script: []Event{{At: 0, Kind: KindCrash, Node: 3}, {At: 5, Kind: KindRecover, Node: 3}, {At: 9, Kind: KindReconfigFault}}},
	}
	for i, p := range good {
		if err := p.Validate(); err != nil {
			t.Errorf("plan %d rejected: %v", i, err)
		}
	}
	bad := []Plan{
		{CrashRate: -1},
		{CrashRate: math.NaN()},
		{MeanDowntime: math.Inf(1)},
		{ReconfigFaultRate: -0.1},
		{CrashRate: 0.1}, // missing MeanDowntime
		{Script: []Event{{At: -1, Kind: KindCrash, Node: 0}}},
		{Script: []Event{{At: 1, Kind: KindCrash, Node: -2}}},
		{Script: []Event{{At: 1, Kind: Kind(9), Node: 0}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad plan %d accepted: %+v", i, p)
		}
	}
}

func TestParseScriptRoundTrip(t *testing.T) {
	const src = "crash@100:5,recover@250:5,cfail@300"
	events, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{At: 100, Kind: KindCrash, Node: 5},
		{At: 250, Kind: KindRecover, Node: 5},
		{At: 300, Kind: KindReconfigFault},
	}
	if len(events) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(events), len(want))
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, events[i], want[i])
		}
	}
	if got := FormatScript(events); got != src {
		t.Errorf("round trip = %q, want %q", got, src)
	}
}

func TestParseScriptTolerance(t *testing.T) {
	events, err := ParseScript(" crash@1:0 ,, recover@2:0 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("parsed %d events, want 2", len(events))
	}
	if events, err := ParseScript(""); err != nil || events != nil {
		t.Errorf("empty script: %v, %v", events, err)
	}
}

func TestParseScriptErrors(t *testing.T) {
	for _, src := range []string{
		"crash",           // no @
		"boom@10:1",       // unknown kind
		"crash@x:1",       // bad tick
		"crash@-5:1",      // negative tick
		"crash@10",        // missing node
		"crash@10:x",      // bad node
		"crash@10:-1",     // negative node
		"cfail@10:3",      // cfail takes no node
		"crash@10:1,oops", // later event bad
	} {
		if _, err := ParseScript(src); err == nil {
			t.Errorf("ParseScript(%q) accepted", src)
		}
	}
}

func TestRetryPolicyDefaults(t *testing.T) {
	rp := RetryPolicy{}.WithDefaults()
	if rp.Budget != DefaultRetryBudget || rp.BackoffBase != DefaultBackoffBase || rp.BackoffCap != DefaultBackoffCap {
		t.Fatalf("defaults = %+v", rp)
	}
	rp = RetryPolicy{Budget: 7, BackoffBase: 2, BackoffCap: 8}.WithDefaults()
	if rp.Budget != 7 || rp.BackoffBase != 2 || rp.BackoffCap != 8 {
		t.Fatalf("explicit knobs overridden: %+v", rp)
	}
}

func TestRetryPolicyValidate(t *testing.T) {
	good := []RetryPolicy{{}, {Budget: 5}, {BackoffBase: 4, BackoffCap: 4}}
	for i, rp := range good {
		if err := rp.Validate(); err != nil {
			t.Errorf("policy %d rejected: %v", i, err)
		}
	}
	bad := []RetryPolicy{{Budget: -1}, {BackoffBase: -2}, {BackoffCap: -3}, {BackoffBase: 10, BackoffCap: 5}}
	for i, rp := range bad {
		if err := rp.Validate(); err == nil {
			t.Errorf("bad policy %d accepted: %+v", i, rp)
		}
	}
}

func TestRetryPolicyBackoff(t *testing.T) {
	rp := RetryPolicy{BackoffBase: 16, BackoffCap: 100}
	for attempt, want := range map[int64]int64{1: 16, 2: 32, 3: 64, 4: 100, 5: 100, 50: 100} {
		if got := rp.Backoff(attempt); got != want {
			t.Errorf("Backoff(%d) = %d, want %d", attempt, got, want)
		}
	}
	// The doubling must saturate at the cap, never overflow.
	wide := RetryPolicy{BackoffBase: 1, BackoffCap: 1 << 62}
	if got := wide.Backoff(200); got != 1<<62 {
		t.Errorf("wide Backoff(200) = %d", got)
	}
}

// stubTarget records injector callbacks against a toy population.
type stubTarget struct {
	n       int
	down    map[int]bool
	log     []string
	armed   int
	liveFor int // Live() answers true this many more times
}

func newStub(n, liveFor int) *stubTarget {
	return &stubTarget{n: n, down: map[int]bool{}, liveFor: liveFor}
}

func (t *stubTarget) NodeCount() int       { return t.n }
func (t *stubTarget) NodeDown(no int) bool { return t.down[no] }
func (t *stubTarget) DownCount() int       { return len(t.down) }
func (t *stubTarget) Crash(no int, now int64) {
	t.down[no] = true
	t.log = append(t.log, fmt.Sprintf("crash:%d@%d", no, now))
}
func (t *stubTarget) Recover(no int, now int64) {
	delete(t.down, no)
	t.log = append(t.log, fmt.Sprintf("recover:%d@%d", no, now))
}
func (t *stubTarget) ArmReconfigFault(now int64) {
	t.armed++
	t.log = append(t.log, fmt.Sprintf("cfail@%d", now))
}
func (t *stubTarget) Live() bool {
	if t.liveFor <= 0 {
		return false
	}
	t.liveFor--
	return true
}

func TestNewInjectorRejects(t *testing.T) {
	eng := &sim.Engine{}
	st := newStub(4, 0)
	if _, err := NewInjector(Plan{CrashRate: -1}, rng.New(1), eng, st); err == nil {
		t.Error("invalid plan accepted")
	}
	if _, err := NewInjector(Plan{CrashRate: 0.1, MeanDowntime: 5}, nil, eng, st); err == nil {
		t.Error("nil RNG accepted with positive rates")
	}
	oob := Plan{Script: []Event{{At: 1, Kind: KindCrash, Node: 4}}}
	if _, err := NewInjector(oob, nil, eng, st); err == nil {
		t.Error("out-of-range script node accepted")
	}
	ok := Plan{Script: []Event{{At: 1, Kind: KindReconfigFault, Node: 99}}}
	if _, err := NewInjector(ok, nil, eng, st); err != nil {
		t.Errorf("cfail with ignored node rejected: %v", err)
	}
}

func TestInjectorScriptedSequence(t *testing.T) {
	plan := Plan{Script: []Event{
		{At: 10, Kind: KindCrash, Node: 1},
		{At: 30, Kind: KindRecover, Node: 1},
		{At: 20, Kind: KindReconfigFault},
	}}
	eng := &sim.Engine{}
	st := newStub(3, 0)
	in, err := NewInjector(plan, nil, eng, st)
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	if in.PendingRecoveries() != 1 {
		t.Fatalf("pending recoveries before run = %d, want 1", in.PendingRecoveries())
	}
	for eng.Step() {
	}
	want := "crash:1@10,cfail@20,recover:1@30"
	if got := strings.Join(st.log, ","); got != want {
		t.Fatalf("event log = %q, want %q", got, want)
	}
	if in.PendingRecoveries() != 0 {
		t.Fatalf("pending recoveries after run = %d", in.PendingRecoveries())
	}
	if st.armed != 1 {
		t.Fatalf("armed = %d, want 1", st.armed)
	}
}

func TestInjectorRandomCrashStream(t *testing.T) {
	plan := Plan{CrashRate: 0.05, MeanDowntime: 40}
	eng := &sim.Engine{}
	st := newStub(5, 6)
	in, err := NewInjector(plan, rng.New(7), eng, st)
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	for eng.Step() {
	}
	var crashes, recovers int
	for _, e := range st.log {
		if strings.HasPrefix(e, "crash:") {
			crashes++
		}
		if strings.HasPrefix(e, "recover:") {
			recovers++
		}
	}
	// Every crash schedules its recovery; the stream dies once Live
	// goes false, so both the run and the counts are finite.
	if crashes == 0 {
		t.Fatal("random stream produced no crashes")
	}
	if recovers != crashes {
		t.Fatalf("crashes %d != recoveries %d", crashes, recovers)
	}
	if in.PendingRecoveries() != 0 {
		t.Fatalf("pending recoveries after drain = %d", in.PendingRecoveries())
	}
	if len(st.down) != 0 {
		t.Fatalf("%d nodes left down", len(st.down))
	}
}

func TestInjectorRandomStreamsDeterministic(t *testing.T) {
	run := func() string {
		plan := Plan{CrashRate: 0.02, MeanDowntime: 25, ReconfigFaultRate: 0.03}
		eng := &sim.Engine{}
		st := newStub(4, 10)
		in, err := NewInjector(plan, rng.New(99), eng, st)
		if err != nil {
			t.Fatal(err)
		}
		in.Start()
		for eng.Step() {
		}
		return strings.Join(st.log, ",")
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged:\n%s\n%s", a, b)
	}
	if a == "" {
		t.Fatal("streams produced nothing")
	}
}

func TestInjectorAllNodesDown(t *testing.T) {
	// With the whole population down, the crash stream skips the
	// firing but keeps perpetuating until Live goes false.
	plan := Plan{CrashRate: 0.5, MeanDowntime: 1e9}
	eng := &sim.Engine{}
	st := newStub(1, 4)
	in, err := NewInjector(plan, rng.New(3), eng, st)
	if err != nil {
		t.Fatal(err)
	}
	in.Start()
	for eng.Step() {
	}
	var crashes int
	for _, e := range st.log {
		if strings.HasPrefix(e, "crash:") {
			crashes++
		}
	}
	if crashes != 1 {
		t.Fatalf("crashes = %d, want exactly 1 (single node, huge downtime)", crashes)
	}
}

// TestPickUpNodeTakesKthUpNode: the crash stream's victim is the k-th
// up node in index order, for one draw of k below the up count, and
// the pick allocates nothing.
func TestPickUpNodeTakesKthUpNode(t *testing.T) {
	st := newStub(10, 0)
	for _, no := range []int{0, 3, 4, 9} {
		st.down[no] = true
	}
	up := []int{1, 2, 5, 6, 7, 8}
	in, err := NewInjector(Plan{CrashRate: 0.1, MeanDowntime: 5}, rng.New(7), &sim.Engine{}, st)
	if err != nil {
		t.Fatal(err)
	}
	ref := rng.New(7)
	seen := map[int]bool{}
	for i := 0; i < 200; i++ {
		no, ok := in.pickUpNode()
		if want := up[ref.Intn(len(up))]; !ok || no != want {
			t.Fatalf("draw %d: picked node %d (ok %v), want %d", i, no, ok, want)
		}
		seen[no] = true
	}
	if len(seen) != len(up) {
		t.Fatalf("200 draws picked %d of the %d up nodes", len(seen), len(up))
	}
	if !invariant.RaceEnabled {
		if avg := testing.AllocsPerRun(100, func() { in.pickUpNode() }); avg != 0 {
			t.Fatalf("pickUpNode allocates: %.1f allocs/op", avg)
		}
	}
	for no := range 10 {
		st.down[no] = true
	}
	if no, ok := in.pickUpNode(); ok {
		t.Fatalf("picked node %d with the whole population down", no)
	}
}
