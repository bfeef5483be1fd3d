package faults

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"zeppelin/internal/cluster"
)

func TestValidateCatchesMalformedSchedules(t *testing.T) {
	cases := []struct {
		name string
		s    *Schedule
		want string
	}{
		{"rank out of range", &Schedule{Stragglers: []Straggler{{Rank: 16, Factor: 2, From: 0, To: 5}}}, "outside world"},
		{"factor below one", &Schedule{Stragglers: []Straggler{{Rank: 0, Factor: 0.5, From: 0, To: 5}}}, "< 1"},
		{"empty window", &Schedule{Stragglers: []Straggler{{Rank: 0, Factor: 2, From: 5, To: 5}}}, "empty"},
		{"nic out of range", &Schedule{NICFaults: []NICFault{{NIC: 8, Factor: 0.5, From: 0, To: 5}}}, "NICs"},
		{"nic factor above one", &Schedule{NICFaults: []NICFault{{NIC: 0, Factor: 1.5, From: 0, To: 5}}}, "(0, 1]"},
		{"node out of range", &Schedule{Outages: []NodeOutage{{Node: 2, From: 0, To: 5}}}, "outside"},
		{"non-suffix outage", &Schedule{Outages: []NodeOutage{{Node: 0, From: 0, To: 5}}}, "suffix"},
		{"all nodes absent", &Schedule{Outages: []NodeOutage{
			{Node: 0, From: 0, To: 5}, {Node: 1, From: 0, To: 5}}}, "absent"},
	}
	for _, c := range cases {
		err := c.s.Validate(2, 8, 4)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want containing %q", c.name, err, c.want)
		}
	}
	var nilSched *Schedule
	if err := nilSched.Validate(2, 8, 4); err != nil {
		t.Fatalf("nil schedule must validate: %v", err)
	}
	ok := &Schedule{
		Stragglers: []Straggler{{Rank: 3, Factor: 2.5, From: 10, To: 20}},
		NICFaults:  []NICFault{{NIC: 1, Factor: 0.25, From: 5, To: 15}},
		Outages:    []NodeOutage{{Node: 1, From: 30, To: 40, FailStop: true}},
	}
	if err := ok.Validate(2, 8, 4); err != nil {
		t.Fatalf("well-formed schedule rejected: %v", err)
	}
}

func TestAtResolvesWindowsAndTransitions(t *testing.T) {
	s := &Schedule{
		Stragglers: []Straggler{{Rank: 3, Factor: 2.5, From: 10, To: 20}},
		Outages:    []NodeOutage{{Node: 1, From: 30, To: 40}},
	}
	if err := s.Validate(2, 8, 4); err != nil {
		t.Fatal(err)
	}
	// Before any fault: nominal.
	v := s.At(5, 2, 8, 4)
	if v.Nodes != 2 || v.Health != nil || v.Resized || len(v.Events) != 0 {
		t.Fatalf("iteration 5 should be nominal: %+v", v)
	}
	// Straggler onset: event fires, health degrades, no resize.
	v = s.At(10, 2, 8, 4)
	if v.Health.SlowOf(3) != 2.5 || v.Health.SlowOf(2) != 1 {
		t.Fatalf("straggler not applied: %+v", v.Health)
	}
	if len(v.Events) != 1 || !strings.HasPrefix(v.Events[0], "straggler:rank3") {
		t.Fatalf("missing straggler event: %v", v.Events)
	}
	// Straggler end: health back to nominal, recovery marker.
	v = s.At(20, 2, 8, 4)
	if v.Health != nil || len(v.Events) != 1 || !strings.HasPrefix(v.Events[0], "recovered") {
		t.Fatalf("straggler should clear at To: %+v", v)
	}
	// Planned shrink: world resizes, not fail-stop.
	v = s.At(30, 2, 8, 4)
	if v.Nodes != 1 || !v.Resized || v.FailStop || v.PrevNodes != 2 {
		t.Fatalf("shrink transition wrong: %+v", v)
	}
	// Grow back.
	v = s.At(40, 2, 8, 4)
	if v.Nodes != 2 || !v.Resized || v.PrevNodes != 1 {
		t.Fatalf("grow transition wrong: %+v", v)
	}
	// Fail-stop flavor.
	f := &Schedule{Outages: []NodeOutage{{Node: 1, From: 30, To: 40, FailStop: true}}}
	v = f.At(30, 2, 8, 4)
	if !v.FailStop || len(v.Events) != 1 || !strings.HasPrefix(v.Events[0], "fail:node1") {
		t.Fatalf("fail-stop transition wrong: %+v", v)
	}
	if ev := f.At(40, 2, 8, 4).Events; len(ev) != 1 || !strings.HasPrefix(ev[0], "rejoin") {
		t.Fatalf("rejoin event wrong: %v", ev)
	}
}

func TestStragglerOnAbsentRankIsDropped(t *testing.T) {
	s := &Schedule{
		Stragglers: []Straggler{{Rank: 12, Factor: 2, From: 0, To: 50}},
		Outages:    []NodeOutage{{Node: 1, From: 10, To: 20}},
	}
	if v := s.At(5, 2, 8, 4); v.Health.SlowOf(12) != 2 {
		t.Fatal("straggler should apply while its node is up")
	}
	// During the outage rank 12 does not exist; the view stays nominal.
	if v := s.At(15, 2, 8, 4); v.Health != nil {
		t.Fatalf("straggler on an absent rank must be dropped: %+v", v.Health)
	}
}

func TestRestartDefaultsAndOverrides(t *testing.T) {
	if got := (&Schedule{}).Restart(); got != DefaultRestartCost {
		t.Fatalf("default restart = %v", got)
	}
	if got := (&Schedule{RestartCost: 5}).Restart(); got != 5 {
		t.Fatalf("explicit restart = %v", got)
	}
	if got := (&Schedule{RestartCost: -1}).Restart(); got != 0 {
		t.Fatalf("negative restart must be free, got %v", got)
	}
	var nilSched *Schedule
	if got := nilSched.Restart(); got != 0 {
		t.Fatalf("nil schedule restart = %v", got)
	}
}

func TestTransitionBounds(t *testing.T) {
	s := &Schedule{
		Stragglers: []Straggler{{Rank: 0, Factor: 2, From: 10, To: 20}},
		Outages:    []NodeOutage{{Node: 1, From: 30, To: 40}},
	}
	if f := s.FirstTransition(); f != 10 {
		t.Fatalf("first transition = %d", f)
	}
	if l := s.LastTransition(); l != 40 {
		t.Fatalf("last transition = %d", l)
	}
	var nilSched *Schedule
	if nilSched.FirstTransition() != -1 || nilSched.LastTransition() != -1 {
		t.Fatal("nil schedule has no transitions")
	}
}

func TestByNameScenarios(t *testing.T) {
	for _, name := range []string{"none", "healthy"} {
		s, err := ByName(name, 200, 2, 8)
		if err != nil || s != nil {
			t.Fatalf("%s: %v, %v", name, s, err)
		}
	}
	for _, name := range []string{"straggler", "nic", "failstop", "shrink"} {
		s, err := ByName(name, 200, 3, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name != name {
			t.Fatalf("%s: name %q", name, s.Name)
		}
		if err := s.Validate(3, 8, 4); err != nil {
			t.Fatalf("%s: scenario does not validate: %v", name, err)
		}
	}
	// Parameter overrides land in the schedule.
	s, err := ByName("straggler:rank=7,x=4,from=10,to=30", 200, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	st := s.Stragglers[0]
	if st.Rank != 7 || st.Factor != 4 || st.From != 10 || st.To != 30 {
		t.Fatalf("overrides not applied: %+v", st)
	}
	// The shrink scenario drains after a single-rank degrade window.
	sh, err := ByName("shrink", 200, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(sh.Stragglers) != 1 || len(sh.Outages) != 1 || sh.Outages[0].FailStop {
		t.Fatalf("shrink shape wrong: %+v", sh)
	}
	if sh.Stragglers[0].To != sh.Outages[0].From {
		t.Fatalf("degrade window must end at the drain: %+v", sh)
	}
}

func TestByNameRejectsMalformedSpecs(t *testing.T) {
	for _, spec := range []string{
		"", "bogus", "straggler:rank", "straggler:rank=abc",
		"straggler:bogus=1", "nic:x=0.5,=3", "failstop:node=1,",
	} {
		if _, err := ByName(spec, 200, 2, 8); err == nil {
			t.Errorf("spec %q must be rejected", spec)
		}
	}
}

// TestByNameRejectsNonFinite: NaN and ±Inf never reach a schedule. A
// NaN factor slips past Validate's range checks, an infinite straggler
// factor makes a zero-speed rank, and a NaN restart cost poisons every
// iteration time after the outage.
func TestByNameRejectsNonFinite(t *testing.T) {
	for _, tmpl := range []string{
		"straggler:x=%s", "nic:x=%s", "failstop:restart=%s", "shrink:x=%s", "straggler:from=%s",
	} {
		for _, v := range []string{"NaN", "Inf", "+Inf", "-Inf"} {
			spec := fmt.Sprintf(tmpl, v)
			_, err := ByName(spec, 200, 2, 8)
			if err == nil || !strings.Contains(err.Error(), "finite") {
				t.Errorf("spec %q: err = %v, want a non-finite rejection", spec, err)
			}
		}
	}
}

// FuzzByName: the scenario grammar never panics, and any schedule it
// accepts carries only finite parameters.
func FuzzByName(f *testing.F) {
	for _, spec := range []string{
		"none", "healthy", "straggler", "nic", "failstop", "shrink",
		"straggler:rank=3,x=2.5,from=10,to=40", "nic:nic=0,x=0.5,from=5,to=9",
		"failstop:node=1,restart=30,from=50,to=60", "shrink:node=1,rank=12,x=3,warn=5,from=20,to=30",
		"straggler:x=NaN", "nic:x=Inf", "failstop:restart=NaN", "shrink:x=-Inf",
		"straggler:x=1e400", "straggler:rank=1e300", "nic:x=0x1p-2", ":=", "straggler:,",
	} {
		f.Add(spec)
	}
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ByName(spec, 200, 2, 8)
		if err != nil || s == nil {
			return
		}
		if !finite(s.RestartCost) {
			t.Fatalf("%q: accepted restart cost %v", spec, s.RestartCost)
		}
		for _, st := range s.Stragglers {
			if !finite(st.Factor) {
				t.Fatalf("%q: accepted straggler factor %v", spec, st.Factor)
			}
		}
		for _, nf := range s.NICFaults {
			if !finite(nf.Factor) {
				t.Fatalf("%q: accepted NIC factor %v", spec, nf.Factor)
			}
		}
		// Validation may reject the schedule, but must not panic.
		_ = s.Validate(2, 8, cluster.ClusterA.NICsPerNode)
	})
}

func TestMigrationConservesAndPrices(t *testing.T) {
	spec := cluster.ClusterA
	plan, cost, err := Migration(spec, 2, 1, 65536, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil || cost <= 0 {
		t.Fatalf("shrink migration should move state: plan=%v cost=%v", plan, cost)
	}
	// Every leaving-rank token lands on a surviving rank.
	for _, tr := range plan.Transfers {
		if tr.To >= 8 {
			t.Fatalf("transfer targets a leaving rank: %+v", tr)
		}
	}
	var moved int
	for _, tr := range plan.Transfers {
		moved += tr.Tokens
	}
	if moved != 65536/2 {
		t.Fatalf("moved %d tokens, want the leaving node's half", moved)
	}
	// Grow is priced too; same-size transitions and degenerate inputs are free.
	if _, cost, _ := Migration(spec, 1, 2, 65536, 1024); cost <= 0 {
		t.Fatal("grow migration should cost time")
	}
	if p, c, _ := Migration(spec, 2, 2, 65536, 1024); p != nil || c != 0 {
		t.Fatal("same-size transition must be free")
	}
	if p, c, _ := Migration(spec, 2, 1, 0, 1024); p != nil || c != 0 {
		t.Fatal("zero tokens must be free")
	}
}

func TestByNamePartialWindowsAdapt(t *testing.T) {
	// Pinning one boundary shifts the unpinned defaults instead of
	// producing an empty window.
	for _, spec := range []string{
		"shrink:from=30", "straggler:from=160", "straggler:to=30",
		"failstop:from=150", "nic:to=10",
	} {
		s, err := ByName(spec, 200, 3, 8)
		if err != nil {
			t.Errorf("spec %q rejected: %v", spec, err)
			continue
		}
		if err := s.Validate(3, 8, 4); err != nil {
			t.Errorf("spec %q invalid: %v", spec, err)
		}
	}
	// shrink:from=30 pulls the default warn below it.
	s, err := ByName("shrink:from=30", 200, 3, 8)
	if err != nil {
		t.Fatal(err)
	}
	if w := s.Stragglers[0]; w.From >= w.To || w.To != s.Outages[0].From {
		t.Fatalf("adapted shrink windows malformed: %+v / %+v", w, s.Outages[0])
	}
	// Fully explicit malformed windows still fail loudly.
	if s, err := ByName("straggler:from=50,to=40", 200, 3, 8); err == nil {
		if err := s.Validate(3, 8, 4); err == nil {
			t.Fatal("explicit inverted window must be rejected")
		}
	}
}

func TestByNameRejectsFractionalInts(t *testing.T) {
	for _, spec := range []string{
		"straggler:rank=2.7", "straggler:from=10.9", "failstop:node=0.5",
		"nic:nic=1.5", "shrink:warn=12.3",
	} {
		if _, err := ByName(spec, 200, 3, 8); err == nil {
			t.Errorf("spec %q must be rejected (fractional integer parameter)", spec)
		}
	}
	// Fractional float parameters stay legal.
	if _, err := ByName("straggler:x=2.75", 200, 3, 8); err != nil {
		t.Errorf("fractional factor rejected: %v", err)
	}
}
