package workload

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"dreamsim/internal/fault"
	"dreamsim/internal/rng"
)

// This file implements the scenario DSL: a small line-oriented,
// stdlib-parsed file format that describes multi-class, time-varying
// workloads and compiles onto the existing Spec/TaskSource machinery
// (see scenario_source.go for the compiler). The format is the input
// subsystem's answer to "as many scenarios as you can imagine" (paper
// §III) without a matching flag explosion.
//
// A scenario file is line-oriented; '#' starts a comment, blank lines
// are ignored, and the first significant line must be the directive
// "dreamsim-scenario v1". Example:
//
//	dreamsim-scenario v1
//	name diurnal-burst
//	tasks 20000
//	interval 50
//	arrival gamma 2      # scenario-wide default; cv = 2 is bursty
//
//	class batch
//	  fraction 0.7
//	  arrival poisson
//	  reqtime 1000 100000 lognormal
//	  area 200 1200
//	  popularity 0.8
//	  closest-match 0.1
//	end
//
//	class interactive
//	  fraction 0.3
//	  reqtime 100 2000 uniform
//	end
//
//	timeline               # piecewise-linear rate multipliers
//	  0 0.5
//	  5000 1.5
//	  10000 0.5
//	end
//
//	event spike 2000 2500 3        # x3 arrival rate in [2000,2500)
//	event maintenance 4000 4800 0 9   # nodes 0..9 down for the window
//	event storm 6000 6200 12          # 12 random crashes across the window
//
// ParseScenario is syntax-only (so the fuzzer can round-trip
// semantically absurd specs); Validate holds the semantic rules.

// ScenarioDirective is the mandatory first line of every scenario
// file — a format marker plus version for future evolution.
const ScenarioDirective = "dreamsim-scenario v1"

// MaxScenarioClasses bounds the traffic-class count (sanity cap; the
// per-class substream scheme is O(classes) per emitted task).
const MaxScenarioClasses = 64

// MaxTimelinePoints bounds the load-pattern timeline length.
const MaxTimelinePoints = 4096

// MaxScenarioEvents bounds the scheduled-event list length.
const MaxScenarioEvents = 1024

// ArrivalSpec is an optionally-present arrival process selection. CV
// is the coefficient of variation of the gap distribution and is only
// meaningful for the gamma/weibull kinds (it defaults to 1, which
// makes gamma exactly the Poisson process).
type ArrivalSpec struct {
	Set  bool
	Kind ArrivalKind
	CV   float64
}

// ClassSpec describes one traffic class. Zero/negative sentinel
// values mean "inherit from the run's Spec": ReqTimeLow==0 inherits
// the t_required range and distribution, AreaLow==0 inherits the
// config-area behaviour, Popularity==-1 and ClosestMatch==-1 inherit
// their Spec counterparts.
type ClassSpec struct {
	Name     string
	Fraction float64
	Arrival  ArrivalSpec
	// ReqTimeLow/High bound the class's t_required draw; 0,0 inherits.
	ReqTimeLow, ReqTimeHigh int64
	// TimeDist selects the t_required distribution when the range is
	// set (defaults to uniform).
	TimeDist DistKind
	// AreaLow/High restrict the class's preferred configurations to
	// those with ReqArea inside the range (and bound the synthetic
	// closest-match area draw); 0,0 inherits the full list.
	AreaLow, AreaHigh int64
	// Popularity is the class's Zipf exponent over its config pool
	// (-1 inherits, 0 uniform).
	Popularity float64
	// ClosestMatch is the class's share of tasks whose Cpref is absent
	// from the configurations list (-1 inherits).
	ClosestMatch float64
}

// TimePoint is one knot of the load-pattern timeline: at tick At the
// arrival-rate multiplier is Mult, linearly interpolated between
// knots and held flat outside them.
type TimePoint struct {
	At   int64
	Mult float64
}

// EventKind is the type of a scheduled scenario event.
type EventKind int

const (
	// EventSpike multiplies the arrival rate by Mult over [Start, End).
	EventSpike EventKind = iota
	// EventMaintenance takes nodes [NodeLo, NodeHi] down at Start and
	// recovers them at End — a planned maintenance window.
	EventMaintenance
	// EventStorm injects Count node crashes at ticks spread evenly
	// over [Start, End], victims drawn from a dedicated RNG substream,
	// all recovering at End — a coordinated fault storm.
	EventStorm
)

// String implements fmt.Stringer using the file keywords.
func (k EventKind) String() string {
	switch k {
	case EventSpike:
		return "spike"
	case EventMaintenance:
		return "maintenance"
	case EventStorm:
		return "storm"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// ScheduledEvent is one timed scenario event. Mult is used by spikes,
// NodeLo/NodeHi by maintenance windows, Count by storms.
type ScheduledEvent struct {
	Kind           EventKind
	Start, End     int64
	Mult           float64
	NodeLo, NodeHi int
	Count          int
}

// Scenario is a parsed scenario file. Tasks and Interval are 0 when
// the file does not set them (the run's Spec then governs); Arrival
// is the scenario-wide default process, overridable per class.
type Scenario struct {
	Name     string
	Tasks    int
	Interval int64
	Arrival  ArrivalSpec
	Classes  []ClassSpec
	Timeline []TimePoint
	Events   []ScheduledEvent
}

// MultiClass reports whether the scenario declares two or more
// traffic classes — the switch for per-class accounting and report
// rows (single-class scenarios stay byte-identical to flag runs).
func (s *Scenario) MultiClass() bool { return len(s.Classes) >= 2 }

// HasFaultEvents reports whether any scheduled event lowers onto the
// fault schedule (maintenance windows and storms do; spikes do not).
func (s *Scenario) HasFaultEvents() bool {
	for _, ev := range s.Events {
		if ev.Kind == EventMaintenance || ev.Kind == EventStorm {
			return true
		}
	}
	return false
}

// hasSpikes reports whether any event modulates the arrival rate.
func (s *Scenario) hasSpikes() bool {
	for _, ev := range s.Events {
		if ev.Kind == EventSpike {
			return true
		}
	}
	return false
}

// FaultEvents lowers the scenario's maintenance windows and fault
// storms onto the fault package's scripted-event format. Storm
// victims are drawn from r — a substream split from the run seed only
// when fault events exist, so event-free scenarios consume no extra
// randomness. Node numbers beyond the population are clamped
// (maintenance) or wrapped by the draw (storms use r.Intn(nodes)).
func (s *Scenario) FaultEvents(r *rng.RNG, nodes int) []fault.Event {
	var out []fault.Event
	for _, ev := range s.Events {
		switch ev.Kind {
		case EventMaintenance:
			hi := ev.NodeHi
			if hi >= nodes {
				hi = nodes - 1
			}
			for n := ev.NodeLo; n <= hi; n++ {
				out = append(out, fault.Event{At: ev.Start, Kind: fault.KindCrash, Node: n})
				out = append(out, fault.Event{At: ev.End, Kind: fault.KindRecover, Node: n})
			}
		case EventStorm:
			span := ev.End - ev.Start
			victims := make([]int, 0, ev.Count)
			for k := 0; k < ev.Count; k++ {
				at := ev.Start
				if ev.Count > 1 {
					at += span * int64(k) / int64(ev.Count-1)
				}
				v := r.Intn(nodes)
				out = append(out, fault.Event{At: at, Kind: fault.KindCrash, Node: v})
				victims = append(victims, v)
			}
			recovered := make(map[int]bool, len(victims))
			for _, v := range victims {
				if recovered[v] {
					continue
				}
				recovered[v] = true
				out = append(out, fault.Event{At: ev.End, Kind: fault.KindRecover, Node: v})
			}
		}
	}
	return out
}

// ApplyDefaults copies the scenario's task count, interval and
// (uniform/Poisson) arrival default into a Spec whose corresponding
// knobs are unset — the resolution step between "flag says" and
// "scenario says" at the public-params layer. Explicit flags win.
func (s *Scenario) ApplyDefaults(spec *Spec) {
	if spec.Tasks == 0 && s.Tasks > 0 {
		spec.Tasks = s.Tasks
	}
	if spec.NextTaskMaxInterval == 0 && s.Interval > 0 {
		spec.NextTaskMaxInterval = s.Interval
	}
	if s.Arrival.Set && (s.Arrival.Kind == ArrivalUniform || s.Arrival.Kind == ArrivalPoisson) {
		spec.Arrival = s.Arrival.Kind
	}
}

// ParseScenario parses scenario text. It enforces syntax only —
// line structure, field counts, number formats, duplicate keys —
// and reports errors with 1-based line numbers; semantic coherence
// (ranges, fractions, monotone timelines) lives in Validate so the
// fuzzer can round-trip syntactically-valid-but-absurd specs.
func ParseScenario(text string) (*Scenario, error) {
	p := &scenarioParser{scn: &Scenario{}}
	for _, raw := range strings.Split(text, "\n") {
		p.line++
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := p.feed(fields); err != nil {
			return nil, fmt.Errorf("scenario line %d: %w", p.line, err)
		}
	}
	if !p.sawDirective {
		return nil, fmt.Errorf("scenario: missing %q directive", ScenarioDirective)
	}
	if p.state != stateTop {
		return nil, fmt.Errorf("scenario line %d: unterminated %s block (missing \"end\")", p.line, p.state)
	}
	return p.scn, nil
}

type parserState int

const (
	stateTop parserState = iota
	stateClass
	stateTimeline
)

func (s parserState) String() string {
	switch s {
	case stateClass:
		return "class"
	case stateTimeline:
		return "timeline"
	default:
		return "top-level"
	}
}

type scenarioParser struct {
	scn          *Scenario
	line         int
	state        parserState
	sawDirective bool
	topSeen      map[string]bool
	classSeen    map[string]bool
}

func (p *scenarioParser) feed(f []string) error {
	if !p.sawDirective {
		if len(f) == 2 && f[0]+" "+f[1] == ScenarioDirective {
			p.sawDirective = true
			return nil
		}
		return fmt.Errorf("first line must be %q", ScenarioDirective)
	}
	switch p.state {
	case stateClass:
		return p.feedClass(f)
	case stateTimeline:
		return p.feedTimeline(f)
	}
	return p.feedTop(f)
}

// once records a top-level or class key occurrence, rejecting dupes.
func once(seen *map[string]bool, key string) error {
	if *seen == nil {
		*seen = make(map[string]bool)
	}
	if (*seen)[key] {
		return fmt.Errorf("duplicate %q", key)
	}
	(*seen)[key] = true
	return nil
}

func (p *scenarioParser) feedTop(f []string) error {
	switch f[0] {
	case "name":
		if err := once(&p.topSeen, "name"); err != nil {
			return err
		}
		if len(f) != 2 {
			return fmt.Errorf("want \"name NAME\"")
		}
		p.scn.Name = f[1]
		return nil
	case "tasks":
		if err := once(&p.topSeen, "tasks"); err != nil {
			return err
		}
		if len(f) != 2 {
			return fmt.Errorf("want \"tasks N\"")
		}
		n, err := strconv.Atoi(f[1])
		if err != nil {
			return fmt.Errorf("bad task count %q", f[1])
		}
		p.scn.Tasks = n
		return nil
	case "interval":
		if err := once(&p.topSeen, "interval"); err != nil {
			return err
		}
		if len(f) != 2 {
			return fmt.Errorf("want \"interval N\"")
		}
		n, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			return fmt.Errorf("bad interval %q", f[1])
		}
		p.scn.Interval = n
		return nil
	case "arrival":
		if err := once(&p.topSeen, "arrival"); err != nil {
			return err
		}
		a, err := parseArrivalFields(f[1:])
		if err != nil {
			return err
		}
		p.scn.Arrival = a
		return nil
	case "class":
		if len(f) != 2 {
			return fmt.Errorf("want \"class NAME\"")
		}
		p.scn.Classes = append(p.scn.Classes, ClassSpec{
			Name:         f[1],
			Fraction:     1,
			Popularity:   -1,
			ClosestMatch: -1,
		})
		p.state = stateClass
		p.classSeen = nil
		return nil
	case "timeline":
		if err := once(&p.topSeen, "timeline"); err != nil {
			return err
		}
		if len(f) != 1 {
			return fmt.Errorf("timeline block header takes no arguments")
		}
		p.state = stateTimeline
		return nil
	case "event":
		return p.feedEvent(f[1:])
	}
	return fmt.Errorf("unknown keyword %q", f[0])
}

func (p *scenarioParser) feedClass(f []string) error {
	c := &p.scn.Classes[len(p.scn.Classes)-1]
	switch f[0] {
	case "end":
		if len(f) != 1 {
			return fmt.Errorf("\"end\" takes no arguments")
		}
		p.state = stateTop
		return nil
	case "fraction":
		if err := once(&p.classSeen, "fraction"); err != nil {
			return err
		}
		if len(f) != 2 {
			return fmt.Errorf("want \"fraction F\"")
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return fmt.Errorf("bad fraction %q", f[1])
		}
		c.Fraction = v
		return nil
	case "arrival":
		if err := once(&p.classSeen, "arrival"); err != nil {
			return err
		}
		a, err := parseArrivalFields(f[1:])
		if err != nil {
			return err
		}
		c.Arrival = a
		return nil
	case "reqtime":
		if err := once(&p.classSeen, "reqtime"); err != nil {
			return err
		}
		if len(f) != 3 && len(f) != 4 {
			return fmt.Errorf("want \"reqtime LO HI [DIST]\"")
		}
		lo, err1 := strconv.ParseInt(f[1], 10, 64)
		hi, err2 := strconv.ParseInt(f[2], 10, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad reqtime range %q %q", f[1], f[2])
		}
		c.ReqTimeLow, c.ReqTimeHigh = lo, hi
		if len(f) == 4 {
			d, err := ParseDistKind(f[3])
			if err != nil {
				return err
			}
			c.TimeDist = d
		}
		return nil
	case "area":
		if err := once(&p.classSeen, "area"); err != nil {
			return err
		}
		if len(f) != 3 {
			return fmt.Errorf("want \"area LO HI\"")
		}
		lo, err1 := strconv.ParseInt(f[1], 10, 64)
		hi, err2 := strconv.ParseInt(f[2], 10, 64)
		if err1 != nil || err2 != nil {
			return fmt.Errorf("bad area range %q %q", f[1], f[2])
		}
		c.AreaLow, c.AreaHigh = lo, hi
		return nil
	case "popularity":
		if err := once(&p.classSeen, "popularity"); err != nil {
			return err
		}
		if len(f) != 2 {
			return fmt.Errorf("want \"popularity S\"")
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return fmt.Errorf("bad popularity %q", f[1])
		}
		c.Popularity = v
		return nil
	case "closest-match":
		if err := once(&p.classSeen, "closest-match"); err != nil {
			return err
		}
		if len(f) != 2 {
			return fmt.Errorf("want \"closest-match F\"")
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return fmt.Errorf("bad closest-match %q", f[1])
		}
		c.ClosestMatch = v
		return nil
	}
	return fmt.Errorf("unknown class keyword %q", f[0])
}

func (p *scenarioParser) feedTimeline(f []string) error {
	if f[0] == "end" {
		if len(f) != 1 {
			return fmt.Errorf("\"end\" takes no arguments")
		}
		p.state = stateTop
		return nil
	}
	if len(f) != 2 {
		return fmt.Errorf("want \"TICK MULT\" timeline point")
	}
	at, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return fmt.Errorf("bad timeline tick %q", f[0])
	}
	mult, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return fmt.Errorf("bad timeline multiplier %q", f[1])
	}
	p.scn.Timeline = append(p.scn.Timeline, TimePoint{At: at, Mult: mult})
	return nil
}

func (p *scenarioParser) feedEvent(f []string) error {
	if len(f) == 0 {
		return fmt.Errorf("want \"event KIND ...\"")
	}
	ev := ScheduledEvent{}
	var err error
	switch f[0] {
	case "spike":
		if len(f) != 4 {
			return fmt.Errorf("want \"event spike START END MULT\"")
		}
		ev.Kind = EventSpike
		if ev.Start, ev.End, err = parseTickPair(f[1], f[2]); err != nil {
			return err
		}
		if ev.Mult, err = strconv.ParseFloat(f[3], 64); err != nil {
			return fmt.Errorf("bad spike multiplier %q", f[3])
		}
	case "maintenance":
		if len(f) != 5 {
			return fmt.Errorf("want \"event maintenance START END NODELO NODEHI\"")
		}
		ev.Kind = EventMaintenance
		if ev.Start, ev.End, err = parseTickPair(f[1], f[2]); err != nil {
			return err
		}
		if ev.NodeLo, err = strconv.Atoi(f[3]); err != nil {
			return fmt.Errorf("bad node %q", f[3])
		}
		if ev.NodeHi, err = strconv.Atoi(f[4]); err != nil {
			return fmt.Errorf("bad node %q", f[4])
		}
	case "storm":
		if len(f) != 4 {
			return fmt.Errorf("want \"event storm START END COUNT\"")
		}
		ev.Kind = EventStorm
		if ev.Start, ev.End, err = parseTickPair(f[1], f[2]); err != nil {
			return err
		}
		if ev.Count, err = strconv.Atoi(f[3]); err != nil {
			return fmt.Errorf("bad storm count %q", f[3])
		}
	default:
		return fmt.Errorf("unknown event kind %q", f[0])
	}
	p.scn.Events = append(p.scn.Events, ev)
	return nil
}

func parseTickPair(a, b string) (start, end int64, err error) {
	if start, err = strconv.ParseInt(a, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("bad tick %q", a)
	}
	if end, err = strconv.ParseInt(b, 10, 64); err != nil {
		return 0, 0, fmt.Errorf("bad tick %q", b)
	}
	return start, end, nil
}

func parseArrivalFields(f []string) (ArrivalSpec, error) {
	if len(f) != 1 && len(f) != 2 {
		return ArrivalSpec{}, fmt.Errorf("want \"arrival KIND [CV]\"")
	}
	kind, err := ParseArrivalKind(f[0])
	if err != nil {
		return ArrivalSpec{}, err
	}
	a := ArrivalSpec{Set: true, Kind: kind}
	if kind == ArrivalGamma || kind == ArrivalWeibull {
		a.CV = 1
		if len(f) == 2 {
			cv, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return ArrivalSpec{}, fmt.Errorf("bad arrival cv %q", f[1])
			}
			a.CV = cv
		}
	} else if len(f) == 2 {
		return ArrivalSpec{}, fmt.Errorf("arrival %s takes no cv", kind)
	}
	return a, nil
}

// FormatScenario renders a scenario in canonical form: fixed key
// order, one space between fields, two-space block indentation,
// unset knobs omitted. Format∘Parse is idempotent — the property the
// fuzzer checks — and Parse(FormatScenario(s)) reproduces s for any
// parseable s.
//
//lint:deadexport (c) test support: FuzzScenario's canonical form, also checked by the root package's scenario tests
func FormatScenario(s *Scenario) string {
	var b strings.Builder
	b.WriteString(ScenarioDirective)
	b.WriteByte('\n')
	if s.Name != "" {
		fmt.Fprintf(&b, "name %s\n", s.Name)
	}
	if s.Tasks > 0 {
		fmt.Fprintf(&b, "tasks %d\n", s.Tasks)
	}
	if s.Interval > 0 {
		fmt.Fprintf(&b, "interval %d\n", s.Interval)
	}
	formatArrival(&b, "", s.Arrival)
	for _, c := range s.Classes {
		fmt.Fprintf(&b, "class %s\n", c.Name)
		fmt.Fprintf(&b, "  fraction %s\n", ftoa(c.Fraction))
		formatArrival(&b, "  ", c.Arrival)
		if c.ReqTimeLow != 0 || c.ReqTimeHigh != 0 {
			fmt.Fprintf(&b, "  reqtime %d %d %s\n", c.ReqTimeLow, c.ReqTimeHigh, c.TimeDist)
		}
		if c.AreaLow != 0 || c.AreaHigh != 0 {
			fmt.Fprintf(&b, "  area %d %d\n", c.AreaLow, c.AreaHigh)
		}
		if c.Popularity >= 0 {
			fmt.Fprintf(&b, "  popularity %s\n", ftoa(c.Popularity))
		}
		if c.ClosestMatch >= 0 {
			fmt.Fprintf(&b, "  closest-match %s\n", ftoa(c.ClosestMatch))
		}
		b.WriteString("end\n")
	}
	if len(s.Timeline) > 0 {
		b.WriteString("timeline\n")
		for _, tp := range s.Timeline {
			fmt.Fprintf(&b, "  %d %s\n", tp.At, ftoa(tp.Mult))
		}
		b.WriteString("end\n")
	}
	for _, ev := range s.Events {
		switch ev.Kind {
		case EventSpike:
			fmt.Fprintf(&b, "event spike %d %d %s\n", ev.Start, ev.End, ftoa(ev.Mult))
		case EventMaintenance:
			fmt.Fprintf(&b, "event maintenance %d %d %d %d\n", ev.Start, ev.End, ev.NodeLo, ev.NodeHi)
		case EventStorm:
			fmt.Fprintf(&b, "event storm %d %d %d\n", ev.Start, ev.End, ev.Count)
		}
	}
	return b.String()
}

// ftoa renders a float in shortest exact round-trip form.
func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func formatArrival(b *strings.Builder, indent string, a ArrivalSpec) {
	if !a.Set {
		return
	}
	if a.Kind == ArrivalGamma || a.Kind == ArrivalWeibull {
		fmt.Fprintf(b, "%sarrival %s %s\n", indent, a.Kind, ftoa(a.CV))
	} else {
		fmt.Fprintf(b, "%sarrival %s\n", indent, a.Kind)
	}
}

// validName reports whether a scenario or class name is safe for XML
// attributes, report rows and filenames.
func validName(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '_', c == '-', c == '.':
		default:
			return false
		}
	}
	return true
}

// validArrival checks an arrival selection's cv coherence.
func validArrival(a ArrivalSpec, where string) error {
	if !a.Set {
		return nil
	}
	if a.Kind == ArrivalGamma || a.Kind == ArrivalWeibull {
		if math.IsNaN(a.CV) || math.IsInf(a.CV, 0) || a.CV < 0.01 || a.CV > 100 {
			return fmt.Errorf("scenario: %s arrival cv %v outside [0.01, 100]", where, a.CV)
		}
	}
	return nil
}

// Validate reports the first semantically incoherent field, or nil.
// Parse-level defaults (fraction 1, popularity/closest-match -1) are
// legal; everything a parser cannot know without context is checked
// here.
func (s *Scenario) Validate() error {
	if s.Name != "" && !validName(s.Name) {
		return fmt.Errorf("scenario: invalid name %q (want [A-Za-z0-9._-]{1,64})", s.Name)
	}
	if s.Tasks < 0 {
		return fmt.Errorf("scenario: negative task count %d", s.Tasks)
	}
	if s.Interval < 0 {
		return fmt.Errorf("scenario: negative interval %d", s.Interval)
	}
	if err := validArrival(s.Arrival, "scenario"); err != nil {
		return err
	}
	if len(s.Classes) > MaxScenarioClasses {
		return fmt.Errorf("scenario: %d classes exceeds the %d cap", len(s.Classes), MaxScenarioClasses)
	}
	names := make(map[string]bool, len(s.Classes))
	for i := range s.Classes {
		c := &s.Classes[i]
		if !validName(c.Name) {
			return fmt.Errorf("scenario: invalid class name %q (want [A-Za-z0-9._-]{1,64})", c.Name)
		}
		if names[c.Name] {
			return fmt.Errorf("scenario: duplicate class %q", c.Name)
		}
		names[c.Name] = true
		if math.IsNaN(c.Fraction) || math.IsInf(c.Fraction, 0) || c.Fraction <= 0 {
			return fmt.Errorf("scenario: class %q fraction %v not positive", c.Name, c.Fraction)
		}
		if err := validArrival(c.Arrival, "class "+c.Name); err != nil {
			return err
		}
		if c.ReqTimeLow != 0 || c.ReqTimeHigh != 0 {
			if c.ReqTimeLow < 1 || c.ReqTimeHigh < c.ReqTimeLow {
				return fmt.Errorf("scenario: class %q reqtime range [%d,%d] invalid", c.Name, c.ReqTimeLow, c.ReqTimeHigh)
			}
		}
		if c.TimeDist < DistUniform || c.TimeDist > DistPareto {
			return fmt.Errorf("scenario: class %q unknown time distribution %d", c.Name, int(c.TimeDist))
		}
		if c.AreaLow != 0 || c.AreaHigh != 0 {
			if c.AreaLow < 1 || c.AreaHigh < c.AreaLow {
				return fmt.Errorf("scenario: class %q area range [%d,%d] invalid", c.Name, c.AreaLow, c.AreaHigh)
			}
		}
		if c.Popularity != -1 && (math.IsNaN(c.Popularity) || math.IsInf(c.Popularity, 0) || c.Popularity < 0) {
			return fmt.Errorf("scenario: class %q popularity %v invalid", c.Name, c.Popularity)
		}
		if c.ClosestMatch != -1 && (math.IsNaN(c.ClosestMatch) || math.IsInf(c.ClosestMatch, 0) ||
			c.ClosestMatch < 0 || c.ClosestMatch > 1) {
			return fmt.Errorf("scenario: class %q closest-match %v outside [0,1]", c.Name, c.ClosestMatch)
		}
	}
	if len(s.Timeline) > MaxTimelinePoints {
		return fmt.Errorf("scenario: %d timeline points exceed the %d cap", len(s.Timeline), MaxTimelinePoints)
	}
	for i, tp := range s.Timeline {
		if tp.At < 0 {
			return fmt.Errorf("scenario: timeline point %d at negative tick %d", i, tp.At)
		}
		if i > 0 && tp.At <= s.Timeline[i-1].At {
			return fmt.Errorf("scenario: timeline ticks not strictly increasing at point %d", i)
		}
		if math.IsNaN(tp.Mult) || math.IsInf(tp.Mult, 0) || tp.Mult <= 0 || tp.Mult > 1e6 {
			return fmt.Errorf("scenario: timeline multiplier %v at tick %d outside (0, 1e6]", tp.Mult, tp.At)
		}
	}
	if len(s.Events) > MaxScenarioEvents {
		return fmt.Errorf("scenario: %d events exceed the %d cap", len(s.Events), MaxScenarioEvents)
	}
	for i, ev := range s.Events {
		if ev.Start < 0 || ev.End < ev.Start {
			return fmt.Errorf("scenario: event %d window [%d,%d] invalid", i, ev.Start, ev.End)
		}
		switch ev.Kind {
		case EventSpike:
			if math.IsNaN(ev.Mult) || math.IsInf(ev.Mult, 0) || ev.Mult <= 0 || ev.Mult > 1e6 {
				return fmt.Errorf("scenario: event %d spike multiplier %v outside (0, 1e6]", i, ev.Mult)
			}
			if ev.End <= ev.Start {
				return fmt.Errorf("scenario: event %d spike window [%d,%d) empty", i, ev.Start, ev.End)
			}
		case EventMaintenance:
			if ev.NodeLo < 0 || ev.NodeHi < ev.NodeLo {
				return fmt.Errorf("scenario: event %d node range [%d,%d] invalid", i, ev.NodeLo, ev.NodeHi)
			}
			if ev.End <= ev.Start {
				return fmt.Errorf("scenario: event %d maintenance window [%d,%d) empty", i, ev.Start, ev.End)
			}
		case EventStorm:
			if ev.Count < 1 || ev.Count > 100000 {
				return fmt.Errorf("scenario: event %d storm count %d outside [1, 100000]", i, ev.Count)
			}
		default:
			return fmt.Errorf("scenario: event %d has unknown kind %d", i, int(ev.Kind))
		}
	}
	return nil
}

// ScenarioFromSpec lifts a flag-level Spec into the scenario format:
// one class named "all" repeating the spec's per-task knobs, the
// spec's arrival process at scenario level. The result is degenerate,
// so it compiles to a source whose stream is the flag-level run's
// draw for draw — the equivalence gate the flag surface is tested
// against.
//
//lint:deadexport (c) test support: the oracle of the root package's scenario equivalence gate and of workload's tests
func ScenarioFromSpec(spec *Spec) *Scenario {
	return &Scenario{
		Tasks:    spec.Tasks,
		Interval: spec.NextTaskMaxInterval,
		Arrival:  ArrivalSpec{Set: true, Kind: spec.Arrival},
		Classes: []ClassSpec{{
			Name:         "all",
			Fraction:     1,
			ReqTimeLow:   spec.TaskReqTimeLow,
			ReqTimeHigh:  spec.TaskReqTimeHigh,
			TimeDist:     spec.TaskTimeDist,
			Popularity:   spec.ConfigPopularity,
			ClosestMatch: spec.ClosestMatchPct,
		}},
	}
}
