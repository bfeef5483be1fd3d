// Package faults is the deterministic fault-and-elasticity layer for
// streaming campaigns: it turns a declarative Schedule of straggler
// windows, NIC degradations, and node outages into per-iteration
// effective-speed cluster views (cluster.Health) plus elastic resize
// events. internal/campaign consumes one View per iteration, so any
// campaign — any method, arrival process, or replanning policy — can run
// under a fault schedule and the comparison stays apples-to-apples: the
// same faults hit every method at the same iterations.
//
// The paper's evaluation (§5) assumes a healthy fixed-size cluster;
// production data-parallel training does not. Three fault families are
// modeled:
//
//   - Straggler: a rank's compute runs Factor× slower for a window
//     (thermal throttling, noisy neighbors, ECC retries). Speed-aware
//     methods re-plan around it; even splits stall at the slow rank.
//   - NICFault: a NIC loses bandwidth for a window (link renegotiation,
//     congestion). The fabric's send and receive engines derate.
//   - NodeOutage: a node leaves for a window. Planned outages (elastic
//     shrink, graceful drain) migrate sequence state through the Eq. 2
//     remapping solver and pay only the migration's bottleneck-sender
//     time; fail-stop outages lose the state and pay a checkpoint-restart
//     charge instead. Either way the node rejoins at the window's end
//     with a planned migration seeding it back.
//
// Everything is a pure function of (Schedule, iteration), so faulted
// campaigns stay bit-identical across worker counts and reruns.
package faults

import (
	"fmt"
	"sort"
	"strings"

	"zeppelin/internal/cluster"
	"zeppelin/internal/kv"
	"zeppelin/internal/remap"
)

// Straggler slows one data-parallel rank's compute by Factor (>= 1)
// during iterations [From, To).
type Straggler struct {
	Rank   int     `json:"rank"`
	Factor float64 `json:"factor"`
	From   int     `json:"from"`
	To     int     `json:"to"`
}

// NICFault derates one global NIC's bandwidth to Factor (in (0, 1]) of
// nominal during iterations [From, To).
type NICFault struct {
	NIC    int     `json:"nic"`
	Factor float64 `json:"factor"`
	From   int     `json:"from"`
	To     int     `json:"to"`
}

// NodeOutage removes one node during iterations [From, To). FailStop
// outages are unplanned — sequence state is lost and a checkpoint
// restart is charged; planned outages drain the node through the
// remapping layer first.
type NodeOutage struct {
	Node     int  `json:"node"`
	From     int  `json:"from"`
	To       int  `json:"to"`
	FailStop bool `json:"fail_stop,omitempty"`
}

// DefaultRestartCost is the checkpoint-restart charge of a fail-stop
// outage in seconds: reloading the last checkpoint and replaying lost
// work. Large against iteration times (seconds), small against a
// campaign — exactly the regime that makes planned drains worth it.
const DefaultRestartCost = 30.0

// Schedule is a deterministic fault scenario.
type Schedule struct {
	Name       string       `json:"name"`
	Stragglers []Straggler  `json:"stragglers,omitempty"`
	NICFaults  []NICFault   `json:"nic_faults,omitempty"`
	Outages    []NodeOutage `json:"outages,omitempty"`
	// RestartCost is the seconds charged when a fail-stop outage begins.
	// Zero selects DefaultRestartCost; negative means free.
	RestartCost float64 `json:"restart_cost,omitempty"`
}

// Restart returns the effective checkpoint-restart charge.
func (s *Schedule) Restart() float64 {
	switch {
	case s == nil || s.RestartCost < 0:
		return 0
	case s.RestartCost == 0:
		return DefaultRestartCost
	}
	return s.RestartCost
}

// Validate checks the schedule against a deployment: factors in range,
// windows well-formed, outage nodes in range, and — because the
// simulator keeps rank ids dense — the set of absent nodes must always
// be a suffix of the node list (elastic events remove and restore
// trailing nodes; rank renumbering is the migration's job in a real
// system). At least one node must stay up at every iteration.
func (s *Schedule) Validate(nodes, ranksPerNode, nicsPerNode int) error {
	if s == nil {
		return nil
	}
	world := nodes * ranksPerNode
	for i, st := range s.Stragglers {
		if st.Rank < 0 || st.Rank >= world {
			return fmt.Errorf("faults: straggler %d rank %d outside world of %d", i, st.Rank, world)
		}
		if st.Factor < 1 {
			return fmt.Errorf("faults: straggler %d factor %v < 1", i, st.Factor)
		}
		if st.From < 0 || st.To <= st.From {
			return fmt.Errorf("faults: straggler %d window [%d, %d) is empty", i, st.From, st.To)
		}
	}
	for i, nf := range s.NICFaults {
		if nf.NIC < 0 || nf.NIC >= nodes*nicsPerNode {
			return fmt.Errorf("faults: NIC fault %d nic %d outside %d NICs", i, nf.NIC, nodes*nicsPerNode)
		}
		if nf.Factor <= 0 || nf.Factor > 1 {
			return fmt.Errorf("faults: NIC fault %d factor %v outside (0, 1]", i, nf.Factor)
		}
		if nf.From < 0 || nf.To <= nf.From {
			return fmt.Errorf("faults: NIC fault %d window [%d, %d) is empty", i, nf.From, nf.To)
		}
	}
	for i, o := range s.Outages {
		if o.Node < 0 || o.Node >= nodes {
			return fmt.Errorf("faults: outage %d node %d outside %d nodes", i, o.Node, nodes)
		}
		if o.From < 0 || o.To <= o.From {
			return fmt.Errorf("faults: outage %d window [%d, %d) is empty", i, o.From, o.To)
		}
	}
	// Check the suffix property and liveness at every window boundary
	// (the absent set only changes there).
	var bounds []int
	for _, o := range s.Outages {
		bounds = append(bounds, o.From, o.To)
	}
	sort.Ints(bounds)
	for _, b := range bounds {
		absent := make(map[int]bool)
		for _, o := range s.Outages {
			if o.From <= b && b < o.To {
				absent[o.Node] = true
			}
		}
		if len(absent) >= nodes {
			return fmt.Errorf("faults: all %d nodes absent at iteration %d", nodes, b)
		}
		for n := nodes - len(absent); n < nodes; n++ {
			if !absent[n] {
				return fmt.Errorf("faults: absent nodes at iteration %d are not a trailing suffix", b)
			}
		}
	}
	return nil
}

// View is the cluster state one campaign iteration executes under.
type View struct {
	Iter int
	// Nodes is the active node count (leading nodes; elastic events
	// remove trailing nodes).
	Nodes int
	// PrevNodes is the active node count of the previous iteration.
	PrevNodes int
	// Resized reports an elastic transition at this iteration.
	Resized bool
	// FailStop reports that a fail-stop outage begins at this iteration
	// (the transition loses state and pays the restart charge instead of
	// a planned migration).
	FailStop bool
	// Health is the degraded effective-speed view sized to the active
	// cluster, nil when nominal.
	Health *cluster.Health
	// Events are human-readable markers for fault transitions occurring
	// at this iteration ("fail:node1", "straggler:rank3 x2.5", ...).
	Events []string
}

// activeNodes counts nodes up at an iteration; negative iterations are
// before the campaign and see the full cluster.
func (s *Schedule) activeNodes(iter, baseNodes int) int {
	if s == nil || iter < 0 {
		return baseNodes
	}
	n := baseNodes
	for _, o := range s.Outages {
		if o.From <= iter && iter < o.To {
			n--
		}
	}
	if n < 1 {
		n = 1
	}
	return n
}

// At resolves the schedule at one iteration for a deployment of
// baseNodes nodes with ranksPerNode data-parallel ranks and nicsPerNode
// effective NICs per node. Stragglers and NIC faults addressing absent
// ranks/NICs are dropped for the duration of the outage.
func (s *Schedule) At(iter, baseNodes, ranksPerNode, nicsPerNode int) View {
	v := View{
		Iter:      iter,
		Nodes:     s.activeNodes(iter, baseNodes),
		PrevNodes: s.activeNodes(iter-1, baseNodes),
	}
	v.Resized = v.Nodes != v.PrevNodes
	if s == nil {
		return v
	}
	world := v.Nodes * ranksPerNode
	nics := v.Nodes * nicsPerNode

	var slow []float64
	for _, st := range s.Stragglers {
		if st.From <= iter && iter < st.To && st.Rank < world && st.Factor > 1 {
			if slow == nil {
				slow = ones(world)
			}
			if st.Factor > slow[st.Rank] {
				slow[st.Rank] = st.Factor
			}
		}
		if st.From == iter {
			v.Events = append(v.Events, fmt.Sprintf("straggler:rank%d x%.3g", st.Rank, st.Factor))
		}
		if st.To == iter {
			v.Events = append(v.Events, fmt.Sprintf("recovered:rank%d", st.Rank))
		}
	}
	var derate []float64
	for _, nf := range s.NICFaults {
		if nf.From <= iter && iter < nf.To && nf.NIC < nics && nf.Factor < 1 {
			if derate == nil {
				derate = ones(nics)
			}
			if nf.Factor < derate[nf.NIC] {
				derate[nf.NIC] = nf.Factor
			}
		}
		if nf.From == iter {
			v.Events = append(v.Events, fmt.Sprintf("nic-degrade:nic%d x%.3g", nf.NIC, nf.Factor))
		}
		if nf.To == iter {
			v.Events = append(v.Events, fmt.Sprintf("nic-recovered:nic%d", nf.NIC))
		}
	}
	if slow != nil || derate != nil {
		v.Health = &cluster.Health{Slow: slow, NICDerate: derate}
	}
	for _, o := range s.Outages {
		if o.From == iter {
			if o.FailStop {
				v.FailStop = true
				v.Events = append(v.Events, fmt.Sprintf("fail:node%d", o.Node))
			} else {
				v.Events = append(v.Events, fmt.Sprintf("shrink:node%d", o.Node))
			}
		}
		if o.To == iter {
			kind := "grow"
			if o.FailStop {
				kind = "rejoin"
			}
			v.Events = append(v.Events, fmt.Sprintf("%s:node%d", kind, o.Node))
		}
	}
	return v
}

// FirstTransition returns the earliest iteration at which any fault
// begins (-1 for a nil or empty schedule) — the end of the healthy
// baseline window recovery measurements compare against.
func (s *Schedule) FirstTransition() int {
	first := -1
	upd := func(it int) {
		if first < 0 || it < first {
			first = it
		}
	}
	if s == nil {
		return first
	}
	for _, st := range s.Stragglers {
		upd(st.From)
	}
	for _, nf := range s.NICFaults {
		upd(nf.From)
	}
	for _, o := range s.Outages {
		upd(o.From)
	}
	return first
}

func ones(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 1
	}
	return out
}

// Migration plans the Eq. 2 sequence-state migration of an elastic
// transition: the resident state (tokens × stateBytesPerToken bytes,
// evenly laid out over the old active ranks, as the remapping layer
// maintains) moves to the even layout over the new active ranks. It
// returns the remap plan and its bottleneck-sender time in seconds —
// the campaign charges that time to the transition iteration. spec must
// be the effective (TP-folded) node spec.
func Migration(spec cluster.Spec, oldNodes, newNodes, tokens int, stateBytesPerToken float64) (*remap.Plan, float64, error) {
	if oldNodes == newNodes || tokens <= 0 || stateBytesPerToken <= 0 {
		return nil, 0, nil
	}
	span := oldNodes
	if newNodes > span {
		span = newNodes
	}
	c, err := cluster.New(spec, span)
	if err != nil {
		return nil, 0, err
	}
	have := evenLayout(tokens, oldNodes*spec.GPUsPerNode, c.World())
	want := evenLayout(tokens, newNodes*spec.GPUsPerNode, c.World())
	bIntra := stateBytesPerToken / spec.IntraBandwidth
	bInter := stateBytesPerToken / (float64(spec.NICsPerNode) * spec.NICBandwidth / float64(spec.GPUsPerNode))
	if bInter < bIntra {
		bInter = bIntra
	}
	plan, err := remap.SolveTarget(have, want, c, bIntra, bInter)
	if err != nil {
		return nil, 0, err
	}
	return plan, plan.MaxSenderCost, nil
}

// evenLayout spreads tokens evenly over the first `active` ranks of a
// `world`-sized vector (the remainder goes to the leading ranks).
func evenLayout(tokens, active, world int) []int {
	out := make([]int, world)
	if active <= 0 {
		return out
	}
	base, rem := tokens/active, tokens%active
	for r := 0; r < active && r < world; r++ {
		out[r] = base
		if r < rem {
			out[r]++
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Named scenarios
// ---------------------------------------------------------------------

// ByName builds a fault schedule from a scenario spec, scaled to a
// campaign horizon on a deployment of `nodes` nodes with ranksPerNode
// data-parallel ranks each. The grammar is
//
//	name[:key=value[,key=value...]]
//
// where the parameters follow the key=value rules every spec shares
// (package kv; the README's "Spec grammar"), with scenarios (defaults in
// brackets, iteration windows scale with the horizon):
//
//	none | healthy  — no faults (returns nil)
//	straggler       — one rank runs x× slower for the middle half of the
//	                  campaign [rank=ranksPerNode/2, x=2.5, from=i/4, to=3i/4]
//	nic             — one NIC loses bandwidth [nic=1, x=0.25, from=i/4, to=3i/4]
//	failstop        — the last node fail-stops and later rejoins
//	                  [node=nodes-1, from=0.35i, to=0.65i, restart=30]
//	shrink          — graceful drain: a sick host on the last node
//	                  degrades (one rank slows x×), the scheduler
//	                  elastically shrinks the node away, and healthy
//	                  capacity grows back [node=nodes-1, rank=the node's
//	                  middle rank, x=3, warn=0.25i, from=0.55i, to=0.75i]
//
// Malformed specs (unknown scenario, unknown key, unparsable or
// non-finite value) return an error; the CLI surfaces them as usage
// errors.
func ByName(spec string, iters, nodes, ranksPerNode int) (*Schedule, error) {
	name, params, _ := strings.Cut(strings.TrimSpace(spec), ":")
	name = strings.TrimSpace(name)
	parse := func(fields map[string]kv.Field) error {
		return kv.Parse(fmt.Sprintf("faults scenario %q", name), params, ",", fields)
	}
	switch name {
	case "none", "healthy":
		return nil, parse(nil)
	case "straggler":
		st := Straggler{Rank: ranksPerNode / 2, Factor: 2.5}
		from, to := pin{v: iters / 4}, pin{v: 3 * iters / 4}
		if err := parse(map[string]kv.Field{
			"rank": kv.Int(&st.Rank), "x": kv.Float(&st.Factor), "from": from.field(), "to": to.field(),
		}); err != nil {
			return nil, err
		}
		st.From, st.To = window(from, to)
		return &Schedule{Name: name, Stragglers: []Straggler{st}}, nil
	case "nic":
		nf := NICFault{NIC: 1, Factor: 0.25}
		from, to := pin{v: iters / 4}, pin{v: 3 * iters / 4}
		if err := parse(map[string]kv.Field{
			"nic": kv.Int(&nf.NIC), "x": kv.Float(&nf.Factor), "from": from.field(), "to": to.field(),
		}); err != nil {
			return nil, err
		}
		nf.From, nf.To = window(from, to)
		return &Schedule{Name: name, NICFaults: []NICFault{nf}}, nil
	case "failstop":
		s := &Schedule{Name: name}
		o := NodeOutage{Node: nodes - 1, FailStop: true}
		from, to := pin{v: 35 * iters / 100}, pin{v: 65 * iters / 100}
		if err := parse(map[string]kv.Field{
			"node": kv.Int(&o.Node), "restart": kv.Float(&s.RestartCost), "from": from.field(), "to": to.field(),
		}); err != nil {
			return nil, err
		}
		o.From, o.To = window(from, to)
		s.Outages = []NodeOutage{o}
		return s, nil
	case "shrink":
		st := Straggler{Factor: 3}
		o := NodeOutage{Node: nodes - 1}
		var rank pin
		warn, from, to := pin{v: iters / 4}, pin{v: 11 * iters / 20}, pin{v: 3 * iters / 4}
		if err := parse(map[string]kv.Field{
			"node": kv.Int(&o.Node), "rank": rank.field(), "x": kv.Float(&st.Factor),
			"warn": warn.field(), "from": from.field(), "to": to.field(),
		}); err != nil {
			return nil, err
		}
		st.Rank = rank.v
		if !rank.set {
			st.Rank = o.Node*ranksPerNode + ranksPerNode/2
		}
		// The drain's cause precedes it: a sick host on the leaving node
		// runs hot until the scheduler shrinks the node away; capacity
		// grows back healthy at the window's end.
		st.From, o.From = window(warn, from)
		st.To = o.From
		o.To = to.v
		if !to.set && o.To <= o.From {
			o.To = o.From + 1
		}
		return &Schedule{Name: name, Stragglers: []Straggler{st}, Outages: []NodeOutage{o}}, nil
	}
	return nil, fmt.Errorf("faults: unknown scenario %q (want none|straggler|nic|failstop|shrink)", name)
}

// pin is an integer parameter that records whether the spec set it, so
// defaults can adapt to the values a user pinned.
type pin struct {
	v   int
	set bool
}

func (p *pin) field() kv.Field {
	bind := kv.Int(&p.v)
	return func(v string) error {
		p.set = true
		return bind(v)
	}
}

// window resolves a [from, to) iteration window. Default windows scale
// with the horizon and adapt to whatever the user pinned: an explicit
// from past the default to (or vice versa) shifts the unpinned boundary
// so the window stays well-formed; fully explicit windows are taken
// verbatim and validated as given. Short campaigns floor collapsed
// defaults into a well-formed (possibly past-the-horizon, i.e. inert)
// window.
func window(from, to pin) (int, int) {
	f, t := from.v, to.v
	if !to.set && t <= f {
		t = f + 1
	}
	if !from.set && f >= t {
		f = t - 1
		if f < 0 {
			f = 0
		}
	}
	return f, t
}
