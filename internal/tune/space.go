// Package tune is the closed-loop policy optimizer: it searches a
// declared parameter space — replan policy and threshold, replan cost,
// admission capacity, autoscaler gains — for the configuration that
// maximizes a multi-objective fitness over full campaign runs. The
// search is grid seeding plus a small mutation/selection evolutionary
// loop; every candidate evaluation is a pure function of (Params, seed),
// generations fan through runner.ForEach, and selection breaks ties
// deterministically, so the winner is bit-identical at any worker count.
package tune

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"zeppelin/internal/campaign"
	"zeppelin/internal/trainer"
)

// Params is one point in the search space: the policy knobs a candidate
// campaign runs with. Zero values mean "leave the campaign default".
// Fields irrelevant to the selected policy are canonicalized to zero
// (a periodic cadence under a threshold policy, autoscaler gains with
// the autoscaler off) so equivalent points share one Key.
type Params struct {
	// Policy is the replan controller ("always", "never", "threshold",
	// "periodic"); empty leaves the campaign default (threshold).
	Policy string `json:"policy,omitempty"`
	// Threshold is the threshold policy's replan ratio (zero = default).
	Threshold float64 `json:"threshold,omitempty"`
	// Every is the periodic policy's cadence (zero = default).
	Every int `json:"every,omitempty"`
	// ReplanCost is the per-replan charge in seconds (zero = default).
	ReplanCost float64 `json:"replan_cost,omitempty"`
	// Capacity is the admission CapacityFactor (zero = default).
	Capacity float64 `json:"capacity,omitempty"`
	// Autoscale enables the campaign autoscaler with the gains below.
	Autoscale bool `json:"autoscale,omitempty"`
	// UpUtil, DownUtil, Cooldown, Step are the autoscaler gains
	// (zero = the autoscaler's own defaults).
	UpUtil   float64 `json:"up_util,omitempty"`
	DownUtil float64 `json:"down_util,omitempty"`
	Cooldown int     `json:"cooldown,omitempty"`
	Step     int     `json:"step,omitempty"`
}

// canonical zeroes fields the selected policy ignores, so two points
// that run identical campaigns compare equal by Key.
func (p Params) canonical() Params {
	if p.Policy != "threshold" && p.Policy != "" {
		p.Threshold = 0
	}
	if p.Policy != "periodic" {
		p.Every = 0
	}
	if !p.Autoscale {
		p.UpUtil, p.DownUtil, p.Cooldown, p.Step = 0, 0, 0, 0
	}
	return p
}

// num formats a float the shortest way that round-trips — the stable
// textual form Key and Flags share.
func num(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// Key is the canonical textual identity of the point: a fixed field
// order with stable number formatting. Keys order deterministically, so
// they both dedup the search and break fitness ties.
func (p Params) Key() string {
	p = p.canonical()
	parts := []string{"policy=" + orDefault(p.Policy, "threshold")}
	if p.Threshold != 0 {
		parts = append(parts, "threshold="+num(p.Threshold))
	}
	if p.Every != 0 {
		parts = append(parts, "every="+strconv.Itoa(p.Every))
	}
	if p.ReplanCost != 0 {
		parts = append(parts, "replan-cost="+num(p.ReplanCost))
	}
	if p.Capacity != 0 {
		parts = append(parts, "capacity="+num(p.Capacity))
	}
	if p.Autoscale {
		parts = append(parts, "autoscale=on")
		if p.UpUtil != 0 {
			parts = append(parts, "up-util="+num(p.UpUtil))
		}
		if p.DownUtil != 0 {
			parts = append(parts, "down-util="+num(p.DownUtil))
		}
		if p.Cooldown != 0 {
			parts = append(parts, "cooldown="+strconv.Itoa(p.Cooldown))
		}
		if p.Step != 0 {
			parts = append(parts, "step="+strconv.Itoa(p.Step))
		}
	}
	return strings.Join(parts, ",")
}

// Flags renders the point as a ready-to-paste `zeppelin campaign` flag
// set reproducing the candidate's configuration.
func (p Params) Flags() string {
	p = p.canonical()
	parts := []string{"-policy " + orDefault(p.Policy, "threshold")}
	if p.Threshold != 0 {
		parts = append(parts, "-threshold "+num(p.Threshold))
	}
	if p.Every != 0 {
		parts = append(parts, "-every "+strconv.Itoa(p.Every))
	}
	if p.ReplanCost != 0 {
		parts = append(parts, "-replan-cost "+num(p.ReplanCost))
	}
	if p.Capacity != 0 {
		parts = append(parts, "-capacity "+num(p.Capacity))
	}
	if p.Autoscale {
		as := []string{}
		if p.UpUtil != 0 {
			as = append(as, "up-util="+num(p.UpUtil))
		}
		if p.DownUtil != 0 {
			as = append(as, "down-util="+num(p.DownUtil))
		}
		if p.Cooldown != 0 {
			as = append(as, "cooldown="+strconv.Itoa(p.Cooldown))
		}
		if p.Step != 0 {
			as = append(as, "step="+strconv.Itoa(p.Step))
		}
		if len(as) == 0 {
			parts = append(parts, "-autoscale on")
		} else {
			parts = append(parts, "-autoscale "+strings.Join(as, ","))
		}
	}
	return strings.Join(parts, " ")
}

func orDefault(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// apply overlays the point onto a base campaign configuration.
func (p Params) apply(cfg campaign.Config) (campaign.Config, error) {
	p = p.canonical()
	if p.Policy != "" || p.Threshold != 0 || p.Every != 0 {
		pol, err := campaign.PolicyByName(orDefault(p.Policy, "threshold"), p.Threshold, p.Every)
		if err != nil {
			return cfg, err
		}
		cfg.Policy = pol
	}
	if p.ReplanCost != 0 {
		cfg.ReplanCost = p.ReplanCost
	}
	if p.Capacity != 0 {
		cfg.Trainer.CapacityFactor = p.Capacity
	}
	if p.Autoscale {
		cfg.Autoscaler = &campaign.Autoscaler{
			UpUtil:   p.UpUtil,
			DownUtil: p.DownUtil,
			Cooldown: p.Cooldown,
			Step:     p.Step,
		}
	}
	return cfg, nil
}

// Range is one continuous search dimension: an explicit value Set, or an
// inclusive [Lo, Hi] interval (Lo == Hi pins the dimension). The zero
// Range leaves the dimension out of the search.
type Range struct {
	Lo, Hi float64   `json:"-"`
	Set    []float64 `json:"-"`
}

func (r Range) empty() bool { return len(r.Set) == 0 && r.Lo == 0 && r.Hi == 0 }

// values are the dimension's grid seeds: the Set as given, or the
// interval's endpoints and midpoint.
func (r Range) values() []float64 {
	switch {
	case len(r.Set) > 0:
		return r.Set
	case r.empty():
		return []float64{0}
	case r.Lo == r.Hi:
		return []float64{r.Lo}
	default:
		// The midpoint rounds to four decimals so keys stay readable.
		mid := math.Round((r.Lo+r.Hi)/2*1e4) / 1e4
		return []float64{r.Lo, mid, r.Hi}
	}
}

// clamp pulls a mutated value back inside the dimension.
func (r Range) clamp(v float64) float64 {
	if len(r.Set) > 0 || r.empty() {
		return v
	}
	if v < r.Lo {
		return r.Lo
	}
	if v > r.Hi {
		return r.Hi
	}
	return v
}

// IntRange is Range for integer dimensions.
type IntRange struct {
	Lo, Hi int   `json:"-"`
	Set    []int `json:"-"`
}

func (r IntRange) empty() bool { return len(r.Set) == 0 && r.Lo == 0 && r.Hi == 0 }

func (r IntRange) values() []int {
	switch {
	case len(r.Set) > 0:
		return r.Set
	case r.empty():
		return []int{0}
	case r.Lo == r.Hi:
		return []int{r.Lo}
	default:
		vals := []int{r.Lo, (r.Lo + r.Hi) / 2, r.Hi}
		out := vals[:1]
		for _, v := range vals[1:] {
			if v != out[len(out)-1] {
				out = append(out, v)
			}
		}
		return out
	}
}

func (r IntRange) clamp(v int) int {
	if len(r.Set) > 0 || r.empty() {
		return v
	}
	if v < r.Lo {
		return r.Lo
	}
	if v > r.Hi {
		return r.Hi
	}
	return v
}

// Space declares which dimensions the search sweeps and over what
// values. Unset dimensions stay at the campaign defaults.
type Space struct {
	// Grammar is the textual form the space was parsed from (informational).
	Grammar string `json:"grammar,omitempty"`
	// Policies are the replan controllers to consider.
	Policies []string `json:"policies,omitempty"`
	// Threshold, Every sweep the threshold ratio and periodic cadence.
	Threshold Range    `json:"-"`
	Every     IntRange `json:"-"`
	// ReplanCost and Capacity sweep the replan charge (seconds) and the
	// admission CapacityFactor.
	ReplanCost Range `json:"-"`
	Capacity   Range `json:"-"`
	// Autoscale lists the autoscaler on/off states to consider;
	// UpUtil/DownUtil/Cooldown/Step sweep its gains.
	Autoscale []bool   `json:"-"`
	UpUtil    Range    `json:"-"`
	DownUtil  Range    `json:"-"`
	Cooldown  IntRange `json:"-"`
	Step      IntRange `json:"-"`
}

// DefaultSpaceGrammar is the space `zeppelin tune` sweeps when none is
// declared: the threshold policy's replan ratio.
const DefaultSpaceGrammar = "policy=threshold,threshold=1.05:1.6"

// ParseSpace parses the space grammar: comma-separated key=value
// dimensions, where a value is `a|b|c` (explicit set), `lo:hi`
// (inclusive interval), or a single literal (pinned). Keys: policy,
// threshold, every, replan-cost, capacity, autoscale (on|off), up-util,
// down-util, cooldown, step. The empty string selects
// DefaultSpaceGrammar.
func ParseSpace(s string) (Space, error) {
	if strings.TrimSpace(s) == "" {
		s = DefaultSpaceGrammar
	}
	sp := Space{Grammar: s}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return sp, fmt.Errorf("tune: space dimension %q is not key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		if val == "" {
			return sp, fmt.Errorf("tune: space dimension %q has an empty value", field)
		}
		var err error
		switch key {
		case "policy":
			sp.Policies, err = parsePolicies(val)
		case "threshold":
			sp.Threshold, err = parseRange(key, val, 1, 10)
		case "every":
			sp.Every, err = parseIntRange(key, val, 1, 10_000)
		case "replan-cost":
			sp.ReplanCost, err = parseRange(key, val, 1e-9, 3600)
		case "capacity":
			sp.Capacity, err = parseRange(key, val, 0.1, trainer.MaxCapacityFactor)
		case "autoscale":
			sp.Autoscale, err = parseAutoscaleStates(val)
		case "up-util":
			sp.UpUtil, err = parseRange(key, val, 1e-9, 1)
		case "down-util":
			sp.DownUtil, err = parseRange(key, val, 0, 1)
		case "cooldown":
			sp.Cooldown, err = parseIntRange(key, val, 1, 10_000)
		case "step":
			sp.Step, err = parseIntRange(key, val, 1, 10_000)
		default:
			err = fmt.Errorf("tune: unknown space dimension %q", key)
		}
		if err != nil {
			return sp, err
		}
	}
	return sp, nil
}

func parsePolicies(val string) ([]string, error) {
	var out []string
	for _, p := range strings.Split(val, "|") {
		p = strings.TrimSpace(p)
		switch p {
		case "always", "never", "threshold", "periodic":
			out = append(out, p)
		default:
			return nil, fmt.Errorf("tune: unknown policy %q (want always|never|threshold|periodic)", p)
		}
	}
	return dedupStrings(out), nil
}

func parseAutoscaleStates(val string) ([]bool, error) {
	var out []bool
	seen := map[bool]bool{}
	for _, p := range strings.Split(val, "|") {
		var b bool
		switch strings.TrimSpace(p) {
		case "on", "true":
			b = true
		case "off", "false":
			b = false
		default:
			return nil, fmt.Errorf("tune: autoscale state %q (want on|off)", p)
		}
		if !seen[b] {
			seen[b] = true
			out = append(out, b)
		}
	}
	return out, nil
}

func parseRange(key, val string, lo, hi float64) (Range, error) {
	check := func(v float64) error {
		if !(v >= lo && v <= hi) { // NaN fails too
			return fmt.Errorf("tune: %s value %g outside [%g, %g]", key, v, lo, hi)
		}
		return nil
	}
	if strings.Contains(val, "|") {
		var r Range
		for _, p := range strings.Split(val, "|") {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				return r, fmt.Errorf("tune: %s value %q: %v", key, p, err)
			}
			if err := check(v); err != nil {
				return r, err
			}
			r.Set = append(r.Set, v)
		}
		sort.Float64s(r.Set)
		r.Set = dedupFloats(r.Set)
		return r, nil
	}
	if a, b, ok := strings.Cut(val, ":"); ok {
		l, err := strconv.ParseFloat(strings.TrimSpace(a), 64)
		if err != nil {
			return Range{}, fmt.Errorf("tune: %s lower bound %q: %v", key, a, err)
		}
		h, err := strconv.ParseFloat(strings.TrimSpace(b), 64)
		if err != nil {
			return Range{}, fmt.Errorf("tune: %s upper bound %q: %v", key, b, err)
		}
		if l > h {
			return Range{}, fmt.Errorf("tune: %s range %g:%g is inverted", key, l, h)
		}
		if err := check(l); err != nil {
			return Range{}, err
		}
		if err := check(h); err != nil {
			return Range{}, err
		}
		return Range{Lo: l, Hi: h}, nil
	}
	v, err := strconv.ParseFloat(val, 64)
	if err != nil {
		return Range{}, fmt.Errorf("tune: %s value %q: %v", key, val, err)
	}
	if err := check(v); err != nil {
		return Range{}, err
	}
	return Range{Lo: v, Hi: v}, nil
}

func parseIntRange(key, val string, lo, hi int) (IntRange, error) {
	r, err := parseRange(key, val, float64(lo), float64(hi))
	if err != nil {
		return IntRange{}, err
	}
	toInt := func(v float64) (int, error) {
		if v != float64(int(v)) {
			return 0, fmt.Errorf("tune: %s value %g is not an integer", key, v)
		}
		return int(v), nil
	}
	var ir IntRange
	for _, v := range r.Set {
		n, err := toInt(v)
		if err != nil {
			return ir, err
		}
		ir.Set = append(ir.Set, n)
	}
	if len(ir.Set) > 0 {
		return ir, nil
	}
	if ir.Lo, err = toInt(r.Lo); err != nil {
		return ir, err
	}
	if ir.Hi, err = toInt(r.Hi); err != nil {
		return ir, err
	}
	return ir, nil
}

func dedupStrings(in []string) []string {
	seen := map[string]bool{}
	out := in[:0]
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

func dedupFloats(in []float64) []float64 {
	out := in[:0]
	for i, v := range in {
		if i == 0 || v != in[i-1] {
			out = append(out, v)
		}
	}
	return out
}

// gridSeeds enumerates the space's cartesian grid — each continuous
// dimension contributes its endpoints and midpoint, each discrete one
// its values — canonicalized, deduplicated, and evenly down-sampled to
// at most budget points (mixed-radix decoding keeps the sample spread
// across the whole grid without materializing it).
func gridSeeds(sp Space, budget int) []Params {
	policies := sp.Policies
	if len(policies) == 0 {
		policies = []string{""}
	}
	autoscale := sp.Autoscale
	if len(autoscale) == 0 {
		autoscale = []bool{false}
	}
	thresholds := sp.Threshold.values()
	everies := sp.Every.values()
	costs := sp.ReplanCost.values()
	caps := sp.Capacity.values()
	ups := sp.UpUtil.values()
	downs := sp.DownUtil.values()
	cools := sp.Cooldown.values()
	steps := sp.Step.values()

	sizes := []int{len(policies), len(thresholds), len(everies), len(costs),
		len(caps), len(autoscale), len(ups), len(downs), len(cools), len(steps)}
	total := 1
	for _, n := range sizes {
		total *= n
	}
	m := total
	if budget > 0 && m > budget {
		m = budget
	}
	seen := map[string]bool{}
	out := make([]Params, 0, m)
	for i := 0; i < m; i++ {
		idx := i * total / m
		// Mixed-radix decode, last dimension fastest.
		coord := make([]int, len(sizes))
		for d := len(sizes) - 1; d >= 0; d-- {
			coord[d] = idx % sizes[d]
			idx /= sizes[d]
		}
		p := Params{
			Policy:     policies[coord[0]],
			Threshold:  thresholds[coord[1]],
			Every:      everies[coord[2]],
			ReplanCost: costs[coord[3]],
			Capacity:   caps[coord[4]],
			Autoscale:  autoscale[coord[5]],
			UpUtil:     ups[coord[6]],
			DownUtil:   downs[coord[7]],
			Cooldown:   cools[coord[8]],
			Step:       steps[coord[9]],
		}.canonical()
		if k := p.Key(); !seen[k] {
			seen[k] = true
			out = append(out, p)
		}
	}
	return out
}
