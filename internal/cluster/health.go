package cluster

import (
	"fmt"
	"slices"
)

// Health is the effective-speed view of a cluster at one instant: which
// ranks are running slow (thermal throttling, noisy neighbors, ECC
// retries) and which NICs have lost bandwidth (link flaps, congestion,
// lane degradation). A nil *Health means the cluster is nominal. The
// fault-injection layer (internal/faults) produces one Health per
// campaign iteration; the trainer sets the Fabric to it (SetHealth) so
// the degradation shows up in the discrete-event simulation itself, and
// speed-aware planners (Zeppelin's partitioner and remapping layer) read
// the same view to rebalance around it.
type Health struct {
	// Slow[r] is the compute slowdown factor of data-parallel rank r:
	// 1 is nominal, 2.5 means the rank's kernels take 2.5× as long. A nil
	// or short slice leaves the remaining ranks nominal.
	Slow []float64
	// NICDerate[n] is the bandwidth multiplier of global NIC n in (0, 1]:
	// 1 is nominal, 0.25 models a 200 Gb/s link negotiated down to 50.
	// A nil or short slice leaves the remaining NICs nominal.
	NICDerate []float64
}

// Degraded reports whether the view differs from a nominal cluster.
// Zero entries are "unset" placeholders and count as nominal, matching
// SlowOf and NICDerateOf.
func (h *Health) Degraded() bool {
	return h != nil && (slices.ContainsFunc(h.Slow, offNominal) || slices.ContainsFunc(h.NICDerate, offNominal))
}

// offNominal reports whether a slowdown or derate entry is set and not 1.
func offNominal(f float64) bool { return f != 1 && f != 0 }

// SlowOf returns the slowdown factor of a rank (1 when nominal or out of
// the view's range).
func (h *Health) SlowOf(rank int) float64 {
	if h == nil || rank < 0 || rank >= len(h.Slow) || h.Slow[rank] == 0 {
		return 1
	}
	return h.Slow[rank]
}

// NICDerateOf returns the bandwidth multiplier of a NIC (1 when nominal
// or out of the view's range).
func (h *Health) NICDerateOf(nic int) float64 {
	if h == nil || nic < 0 || nic >= len(h.NICDerate) || h.NICDerate[nic] == 0 {
		return 1
	}
	return h.NICDerate[nic]
}

// Speeds returns the per-rank relative speed vector 1/Slow for a world
// size — the quantity load balancers weight effective load by. It is nil,
// which consumers read as all ones, when no rank is slow.
func (h *Health) Speeds(world int) []float64 {
	if h == nil || !slices.ContainsFunc(h.Slow, offNominal) {
		return nil
	}
	out := make([]float64, world)
	for r := range out {
		out[r] = 1 / h.SlowOf(r)
	}
	return out
}

// Validate checks the view against a concrete deployment: slowdowns must
// be >= 1 (use elastic events, not speed-ups, to model capacity changes),
// derates in (0, 1], and neither vector longer than the cluster it
// describes.
func (h *Health) Validate(world, nics int) error {
	if h == nil {
		return nil
	}
	if len(h.Slow) > world {
		return fmt.Errorf("cluster: health has %d slowdowns for world of %d", len(h.Slow), world)
	}
	for r, s := range h.Slow {
		if s != 0 && s < 1 {
			return fmt.Errorf("cluster: rank %d slowdown %v < 1", r, s)
		}
	}
	if len(h.NICDerate) > nics {
		return fmt.Errorf("cluster: health has %d NIC derates for %d NICs", len(h.NICDerate), nics)
	}
	for n, d := range h.NICDerate {
		if d != 0 && (d <= 0 || d > 1) {
			return fmt.Errorf("cluster: NIC %d derate %v outside (0, 1]", n, d)
		}
	}
	return nil
}

// SetHealth puts the fabric's resources under a health view: a slow
// rank's compute stream runs at Speed 1/slowdown, and a derated NIC's
// send and receive Rate is NICBandwidth × derate. Each value is set from
// the spec rather than scaled from the current one, so a fabric moved
// through any sequence of views is exactly what a new fabric put under
// the last view would be. Nominal entries and a nil view restore a new
// fabric's values (compute Speed unset, Rate NICBandwidth). Call before
// the engine runs.
func (f *Fabric) SetHealth(h *Health) {
	for r, c := range f.Compute {
		c.Speed = 0
		if s := h.SlowOf(r); s != 1 {
			c.Speed = 1 / s
		}
	}
	for n := range f.NICSend {
		rate := f.C.NICBandwidth * h.NICDerateOf(n)
		f.NICSend[n].Rate, f.NICRecv[n].Rate = rate, rate
	}
}
