package campaign

import (
	"fmt"
	"strconv"
	"strings"
)

// Autoscaler closes the elasticity loop: instead of replaying a declared
// fault schedule, the campaign itself decides at the end of every
// iteration whether the next one should run on more nodes, fewer, or the
// same. The inputs are the two load signals the loop already measures —
// deferred tokens (queue depth: admission control trimmed the arrival,
// so the world is too small) and mean utilization (the world is too big
// when ranks sit idle). Transitions ride the same elastic-rescale path
// as planned shrink/grow fault events: the stale skeleton is discarded,
// the next plan is forced, and resident sequence state migrates through
// the Eq. 2 solver at Config.MigrateBytesPerToken.
//
// The controller is deliberately conservative: steps are bounded
// (Step nodes per transition), transitions are rate-limited (Cooldown
// iterations must elapse between them), and the world never leaves
// [MinNodes, MaxNodes] — with MaxNodes capped at the configured cluster
// size, because the campaign cannot conjure capacity the cell does not
// have. All decisions are pure functions of observed state, so an
// autoscaled campaign stays deterministic per (Config, seed).
//
// The JSON form is the v1 wire schema of a campaign request's
// "autoscale" object: a zero field selects its default.
type Autoscaler struct {
	// MinNodes is the smallest world the controller will shrink to.
	// Zero selects 1; the world can never drop below one node.
	MinNodes int `json:"min_nodes,omitempty"`
	// MaxNodes is the largest world the controller will grow to. Zero
	// selects the cluster size (Trainer.Nodes); a value above it is a
	// validation error — the campaign cannot exceed cluster capacity.
	MaxNodes int `json:"max_nodes,omitempty"`
	// UpUtil is the grow trigger: utilization above it (or any deferred
	// tokens) asks for Step more nodes. Zero selects DefaultUpUtil.
	UpUtil float64 `json:"up_util,omitempty"`
	// DownUtil is the shrink trigger: utilization below it, with nothing
	// deferred, releases Step nodes. Zero selects DefaultDownUtil.
	DownUtil float64 `json:"down_util,omitempty"`
	// Step bounds how many nodes one transition adds or removes.
	// Zero selects 1.
	Step int `json:"step,omitempty"`
	// Cooldown is the number of iterations that must run after a
	// transition before the controller may fire again; verdicts inside
	// the window are forced to hold. Zero selects DefaultCooldown.
	Cooldown int `json:"cooldown,omitempty"`
}

// Default autoscaler gains; see the corresponding Autoscaler fields.
const (
	DefaultUpUtil   = 0.92
	DefaultDownUtil = 0.60
	DefaultCooldown = 5
)

// validate fills defaults and checks the gains against the cluster size.
// It fills in place, so configurations must not share one Autoscaler.
func (a *Autoscaler) validate(clusterNodes int) error {
	if a.MinNodes == 0 {
		a.MinNodes = 1
	}
	if a.MaxNodes == 0 {
		a.MaxNodes = clusterNodes
	}
	if a.MinNodes < 1 {
		return fmt.Errorf("campaign: autoscaler min nodes must be >= 1, got %d", a.MinNodes)
	}
	if a.MaxNodes > clusterNodes {
		return fmt.Errorf("campaign: autoscaler max nodes %d exceeds cluster capacity %d", a.MaxNodes, clusterNodes)
	}
	if a.MinNodes > a.MaxNodes {
		return fmt.Errorf("campaign: autoscaler min nodes %d exceeds max nodes %d", a.MinNodes, a.MaxNodes)
	}
	if a.UpUtil == 0 {
		a.UpUtil = DefaultUpUtil
	}
	if a.DownUtil == 0 {
		a.DownUtil = DefaultDownUtil
	}
	// Written so that NaN fails: every comparison with NaN is false.
	if !(a.UpUtil > 0 && a.UpUtil <= 1) {
		return fmt.Errorf("campaign: autoscaler up-util must be in (0, 1], got %g", a.UpUtil)
	}
	if !(a.DownUtil >= 0 && a.DownUtil < a.UpUtil) {
		return fmt.Errorf("campaign: autoscaler down-util %g must be in [0, up-util %g)", a.DownUtil, a.UpUtil)
	}
	if a.Step == 0 {
		a.Step = 1
	}
	if a.Step < 0 {
		return fmt.Errorf("campaign: autoscaler step must be >= 1, got %d", a.Step)
	}
	if a.Cooldown == 0 {
		a.Cooldown = DefaultCooldown
	}
	if a.Cooldown < 0 {
		return fmt.Errorf("campaign: autoscaler cooldown must be >= 1, got %d", a.Cooldown)
	}
	return nil
}

// ParseAutoscaler builds an Autoscaler from the CLI grammar: "on" (or
// the empty string) selects all defaults, otherwise comma-separated
// key=value pairs with keys min, max, up-util, down-util, step,
// cooldown. Bounds are checked later against the cluster by validate.
func ParseAutoscaler(s string) (*Autoscaler, error) {
	a := &Autoscaler{}
	s = strings.TrimSpace(s)
	if s == "" || s == "on" {
		return a, nil
	}
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return nil, fmt.Errorf("campaign: autoscaler option %q is not key=value", field)
		}
		key, val = strings.TrimSpace(key), strings.TrimSpace(val)
		var err error
		switch key {
		case "min":
			a.MinNodes, err = strconv.Atoi(val)
		case "max":
			a.MaxNodes, err = strconv.Atoi(val)
		case "up-util":
			a.UpUtil, err = strconv.ParseFloat(val, 64)
		case "down-util":
			a.DownUtil, err = strconv.ParseFloat(val, 64)
		case "step":
			a.Step, err = strconv.Atoi(val)
		case "cooldown":
			a.Cooldown, err = strconv.Atoi(val)
		default:
			return nil, fmt.Errorf("campaign: unknown autoscaler option %q (want min|max|up-util|down-util|step|cooldown)", key)
		}
		if err != nil {
			return nil, fmt.Errorf("campaign: autoscaler option %s=%q: %v", key, val, err)
		}
	}
	return a, nil
}

// decide returns the verdict and next node count for the iteration that
// just ran: cur nodes, mean utilization util, deferred tokens. The
// result is clamped to [MinNodes, MaxNodes]; a clamp that lands back on
// cur reads as hold.
func (a *Autoscaler) decide(cur int, util float64, deferred int) (next int, verdict string) {
	switch {
	case deferred > 0 || util > a.UpUtil:
		next, verdict = cur+a.Step, "grow"
	case util < a.DownUtil:
		next, verdict = cur-a.Step, "shrink"
	default:
		return cur, "hold"
	}
	if next > a.MaxNodes {
		next = a.MaxNodes
	}
	if next < a.MinNodes {
		next = a.MinNodes
	}
	if next == cur {
		verdict = "hold"
	}
	return next, verdict
}
