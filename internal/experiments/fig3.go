package experiments

import (
	"fmt"
	"io"
	"math/rand"

	"zeppelin/internal/cluster"
	"zeppelin/internal/costmodel"
	"zeppelin/internal/model"
	"zeppelin/internal/runner"
	"zeppelin/internal/seq"
	"zeppelin/internal/workload"
)

// Fig3Bin is the attention cost attributed to one length bin, normalized
// to the dataset's total attention cost.
type Fig3Bin struct {
	Compute   float64
	Comm      float64
	Redundant float64 // packing only
}

// Fig3Result is one dataset's per-bin breakdown under one strategy.
type Fig3Result struct {
	Dataset string
	Bins    []Fig3Bin
}

// fig3Setup mirrors the paper's measurement platform: 2 nodes × 8 A800,
// total sequence length 64k, 4×200 Gbps NICs per node.
func fig3Setup() (*costmodel.Model, int, int) {
	cm := costmodel.MustNew(model.LLaMA7B, cluster.ClusterA, 1)
	const world = 16
	const total = 64 << 10
	return cm, world, total
}

// Fig3Packing computes the cost split for input-balanced packing with
// Ulysses-style sequence parallelism (Fig. 3a): sequences are packed into
// world equal chunks; attention over a packed chunk computes the full
// causal triangle, so cross-sequence pairs are redundant work, and the
// all-to-all communication volume is proportional to token count.
func Fig3Packing(d workload.Dataset, batches int) Fig3Result {
	cm, world, total := fig3Setup()
	rng := rand.New(rand.NewSource(3))
	res := Fig3Result{Dataset: d.Name, Bins: make([]Fig3Bin, len(workload.Bins))}
	for b := 0; b < batches; b++ {
		batch := d.Batch(total, rng)
		chunk := total / world
		// First-fit pack into world chunks.
		packs := make([][]seq.Sequence, world)
		fill := make([]int, world)
		for _, s := range batch {
			rem := s.Len
			for i := 0; i < world && rem > 0; i++ {
				space := chunk - fill[i]
				if space <= 0 {
					continue
				}
				take := rem
				if take > space {
					take = space
				}
				packs[i] = append(packs[i], seq.Sequence{ID: s.ID, Len: take})
				fill[i] += take
				rem -= take
			}
		}
		for _, pk := range packs {
			var lens []int
			for _, s := range pk {
				lens = append(lens, s.Len)
			}
			useful, redundant := costmodel.PackedPairs(lens)
			_ = useful
			// Attribute the pack's redundant pairs to its sequences in
			// proportion to their token count; per-sequence compute and
			// Ulysses all-to-all communication go to the sequence's bin.
			packTok := 0
			for _, s := range pk {
				packTok += s.Len
			}
			for _, s := range pk {
				bin := workload.BinOf(s.Len)
				if bin < 0 {
					continue
				}
				frac := float64(s.Len) / float64(packTok)
				res.Bins[bin].Compute += cm.AttnTimePairs(model.CausalPairs(float64(s.Len)))
				res.Bins[bin].Redundant += cm.AttnTimePairs(redundant * frac)
				// Ulysses all-to-all: QKV+O activations cross the group,
				// mostly over NICs on a 2-node setup.
				res.Bins[bin].Comm += cm.InterTime(4 * cm.ActBytes(float64(s.Len)) / 2)
			}
		}
	}
	normalizeFig3(&res)
	return res
}

// Fig3EvenCP computes the cost split for even sequence splitting with
// ring context parallelism (Fig. 3b): every sequence is split across all
// ranks; communication circulates its KV around the global ring, so the
// per-sequence comm/compute ratio collapses for short sequences.
func Fig3EvenCP(d workload.Dataset, batches int) Fig3Result {
	cm, world, total := fig3Setup()
	rng := rand.New(rand.NewSource(3))
	res := Fig3Result{Dataset: d.Name, Bins: make([]Fig3Bin, len(workload.Bins))}
	for b := 0; b < batches; b++ {
		batch := d.Batch(total, rng)
		for _, s := range batch {
			bin := workload.BinOf(s.Len)
			if bin < 0 {
				continue
			}
			res.Bins[bin].Compute += cm.AttnTimePairs(model.CausalPairs(float64(s.Len)))
			// Ring critical path: each round the cross-node edge carries
			// one KV chunk, so over G-1 rounds the bottleneck NIC moves
			// ~KV(s) bytes; per-round message latency adds up for short
			// sequences.
			chunk := cm.KVBytes(float64(s.Len)) / float64(world)
			res.Bins[bin].Comm += float64(world-1) * cm.InterTime(chunk)
		}
	}
	normalizeFig3(&res)
	return res
}

func normalizeFig3(r *Fig3Result) {
	var total float64
	for _, b := range r.Bins {
		total += b.Compute + b.Comm + b.Redundant
	}
	if total == 0 {
		return
	}
	for i := range r.Bins {
		r.Bins[i].Compute /= total
		r.Bins[i].Comm /= total
		r.Bins[i].Redundant /= total
	}
}

// ShortSeqOverheadShare returns the fraction of a bin's cost that is not
// useful computation (comm + redundant over the bin total); the paper
// highlights up to ~60% for <1k sequences under packing.
func ShortSeqOverheadShare(r Fig3Result, bin int) float64 {
	b := r.Bins[bin]
	tot := b.Compute + b.Comm + b.Redundant
	if tot == 0 {
		return 0
	}
	return (b.Comm + b.Redundant) / tot
}

// Fig3Pair is one dataset's breakdown under both strategies.
type Fig3Pair struct {
	Dataset string     `json:"dataset"`
	Packing Fig3Result `json:"packing"`
	EvenCP  Fig3Result `json:"even_cp"`
}

// fig3Batches is the sweep length behind every Fig. 3 rendering.
const fig3Batches = 50

// Fig3All computes both panels for every Fig. 3 dataset. Each
// (dataset, strategy) sweep seeds its own RNG, so all sweeps run
// concurrently — bounded by the options' worker cap — and land in
// dataset order. The error return mirrors the other regenerators; the
// current sweeps cannot fail.
func Fig3All(opts Options) ([]Fig3Pair, error) {
	n := len(workload.All)
	out := make([]Fig3Pair, n)
	if err := runner.ForEach(opts.ctx(), opts.Workers, 2*n, func(i int) error {
		d := workload.All[i%n]
		if i < n {
			out[i].Dataset = d.Name
			out[i].Packing = Fig3Packing(d, fig3Batches)
		} else {
			out[i-n].EvenCP = Fig3EvenCP(d, fig3Batches)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// WriteFig3 renders both panels for every Fig. 3 dataset.
func WriteFig3(w io.Writer, opts Options) error {
	pairs, err := Fig3All(opts)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Figure 3a: packing + Ulysses SP — attention cost share per length bin")
	fmt.Fprintf(w, "%-14s %-9s", "dataset", "")
	for _, l := range workload.BinLabels[:7] {
		fmt.Fprintf(w, "%9s", l)
	}
	fmt.Fprintln(w)
	for _, p := range pairs {
		writeFig3Rows(w, p.Packing, true)
	}
	fmt.Fprintln(w, "\nFigure 3b: even split + ring CP — attention cost share per length bin")
	for _, p := range pairs {
		writeFig3Rows(w, p.EvenCP, false)
	}
	return nil
}

func writeFig3Rows(w io.Writer, r Fig3Result, redundant bool) {
	rows := []struct {
		name string
		get  func(Fig3Bin) float64
	}{
		{"comp", func(b Fig3Bin) float64 { return b.Compute }},
		{"comm", func(b Fig3Bin) float64 { return b.Comm }},
	}
	if redundant {
		rows = append(rows, struct {
			name string
			get  func(Fig3Bin) float64
		}{"redund", func(b Fig3Bin) float64 { return b.Redundant }})
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%-14s %-9s", r.Dataset, row.name)
		for _, b := range r.Bins[:7] {
			fmt.Fprintf(w, "%8.1f%%", 100*row.get(b))
		}
		fmt.Fprintln(w)
	}
}
