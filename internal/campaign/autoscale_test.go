package campaign

import (
	"context"
	"encoding/json"
	"math"
	"runtime"
	"strings"
	"testing"

	"zeppelin/internal/cluster"
	"zeppelin/internal/decision"
	"zeppelin/internal/faults"
	"zeppelin/internal/model"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
	"zeppelin/internal/zeppelin"
)

// autoscaleCell is a small drifting campaign cell with headroom to
// scale: 4 nodes of Cluster A.
func autoscaleCell(seed int64) Config {
	return Config{
		Trainer: trainer.Config{
			Model: model.LLaMA7B, Spec: cluster.ClusterA, Nodes: 4, TP: 1,
			TokensPerGPU: 2048, Seed: seed,
		},
		Iters: 60,
		Arrival: Drift{
			Path:  []workload.Dataset{workload.ArXiv, workload.GitHub, workload.ProLong64k},
			Iters: 60,
		},
	}
}

func TestAutoscalerWorldStaysBounded(t *testing.T) {
	for _, as := range []*Autoscaler{
		{},
		{MinNodes: 2, MaxNodes: 3},
		{UpUtil: 0.8, DownUtil: 0.3, Step: 2, Cooldown: 1},
		{MinNodes: 1, MaxNodes: 4, UpUtil: 0.99, DownUtil: 0.95, Cooldown: 2},
	} {
		cfg := autoscaleCell(7)
		cfg.Autoscaler = as
		cfg.Method = zeppelin.Full()
		rep, err := Run(context.Background(), cfg)
		if err != nil {
			t.Fatalf("autoscaled campaign: %v", err)
		}
		rpn := cfg.Trainer.EffectiveSpec().GPUsPerNode
		lo, hi := as.MinNodes*rpn, as.MaxNodes*rpn
		for _, rec := range rep.Records {
			if rec.World == 0 {
				t.Fatalf("iteration %d: autoscaled campaign did not record world size", rec.Iter)
			}
			if rec.World < lo || rec.World > hi {
				t.Fatalf("iteration %d: world %d outside [%d, %d]", rec.Iter, rec.World, lo, hi)
			}
			if rec.World > cfg.Trainer.Nodes*rpn {
				t.Fatalf("iteration %d: world %d exceeds cluster capacity %d",
					rec.Iter, rec.World, cfg.Trainer.Nodes*rpn)
			}
		}
	}
}

func TestAutoscalerCooldownRespected(t *testing.T) {
	cfg := autoscaleCell(3)
	cfg.Method = zeppelin.Full()
	cfg.Autoscaler = &Autoscaler{UpUtil: 0.95, DownUtil: 0.9, Cooldown: 4}
	rep, err := Run(context.Background(), cfg)
	if err != nil {
		t.Fatalf("autoscaled campaign: %v", err)
	}
	last := -1
	transitions := 0
	for i, rec := range rep.Records {
		if i > 0 && rec.World != rep.Records[i-1].World {
			transitions++
			if last >= 0 && rec.Iter-last <= cfg.Autoscaler.Cooldown {
				t.Fatalf("transitions at iterations %d and %d violate cooldown %d",
					last, rec.Iter, cfg.Autoscaler.Cooldown)
			}
			last = rec.Iter
		}
	}
	if transitions == 0 {
		t.Fatal("scenario produced no scale transitions; the cooldown property was not exercised")
	}
}

// TestAutoscalerDeterministicAcrossWorkers drains the same autoscaled
// grid through worker pools {1, 4, GOMAXPROCS} and asserts bit-identical
// reports and decision logs.
func TestAutoscalerDeterministicAcrossWorkers(t *testing.T) {
	pools := []int{1, 4, runtime.GOMAXPROCS(0)}
	type run struct {
		reports []byte
		log     string
	}
	runs := make([]run, len(pools))
	for pi, workers := range pools {
		cfgs := make([]Config, 3)
		traces := make([]*decision.Trace, len(cfgs))
		for i := range cfgs {
			cfgs[i] = autoscaleCell(int64(100 + 37*i))
			cfgs[i].Method = zeppelin.Full()
			cfgs[i].Autoscaler = &Autoscaler{UpUtil: 0.95, DownUtil: 0.9, Cooldown: 3}
			traces[i] = &decision.Trace{}
			cfgs[i].Decisions = traces[i]
		}
		reports, err := RunGrid(context.Background(), cfgs, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		raw, err := json.Marshal(reports)
		if err != nil {
			t.Fatal(err)
		}
		var log strings.Builder
		for _, tr := range traces {
			if err := decision.WriteNDJSON(&log, "", tr.Records()); err != nil {
				t.Fatal(err)
			}
		}
		runs[pi] = run{reports: raw, log: log.String()}
	}
	for pi := 1; pi < len(pools); pi++ {
		if string(runs[pi].reports) != string(runs[0].reports) {
			t.Fatalf("reports differ between worker pools %d and %d", pools[0], pools[pi])
		}
		if runs[pi].log != runs[0].log {
			t.Fatalf("decision logs differ between worker pools %d and %d", pools[0], pools[pi])
		}
	}
	// The scale decisions must actually be in the log for this to mean
	// anything.
	if !strings.Contains(runs[0].log, `"kind":"scale"`) {
		t.Fatal("decision log records no scale decisions")
	}
}

func TestAutoscalerRejectsBadConfigs(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"exceeds-cluster", func(c *Config) { c.Autoscaler = &Autoscaler{MaxNodes: c.Trainer.Nodes + 1} }},
		{"min-above-max", func(c *Config) { c.Autoscaler = &Autoscaler{MinNodes: 3, MaxNodes: 2} }},
		{"down-above-up", func(c *Config) { c.Autoscaler = &Autoscaler{UpUtil: 0.5, DownUtil: 0.6} }},
		{"negative-step", func(c *Config) { c.Autoscaler = &Autoscaler{Step: -1} }},
		{"negative-cooldown", func(c *Config) { c.Autoscaler = &Autoscaler{Cooldown: -2} }},
		{"with-faults", func(c *Config) {
			c.Autoscaler = &Autoscaler{}
			c.Faults = &faults.Schedule{}
		}},
	}
	for _, tc := range cases {
		cfg := autoscaleCell(1)
		cfg.Method = zeppelin.Full()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid autoscaler config", tc.name)
		}
	}
}

func TestReplanCostNegativeIsValidationError(t *testing.T) {
	cfg := autoscaleCell(1)
	cfg.Method = zeppelin.Full()
	cfg.ReplanCost = -0.01
	err := cfg.Validate()
	if err == nil {
		t.Fatal("Validate accepted a negative replan cost")
	}
	if !strings.Contains(err.Error(), "replan cost") {
		t.Fatalf("error %q does not name the replan cost", err)
	}
	// The streaming entry point must reject it too — this is the path
	// SDK and HTTP callers reach.
	if _, err := Start(context.Background(), cfg); err == nil {
		t.Fatal("Start accepted a negative replan cost")
	}
}

// TestNonFiniteInputsAreRejected: NaN fails every comparison, so range
// checks written as "reject if out of range" let it through. Validate
// rejects NaN and ±Inf as a validation error, and PolicyByName rejects
// a non-finite threshold ratio.
func TestNonFiniteInputsAreRejected(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		muts := map[string]func(*Config){
			"replan-cost": func(c *Config) { c.ReplanCost = v },
			"up-util":     func(c *Config) { c.Autoscaler = &Autoscaler{UpUtil: v} },
			"down-util":   func(c *Config) { c.Autoscaler = &Autoscaler{DownUtil: v} },
		}
		for name, mut := range muts {
			cfg := autoscaleCell(1)
			cfg.Method = zeppelin.Full()
			mut(&cfg)
			if err := cfg.Validate(); !IsValidation(err) {
				t.Errorf("%s=%v: Validate error = %v, want a validation error", name, v, err)
			}
		}
		if _, err := PolicyByName("threshold", v, 0); err == nil {
			t.Errorf("threshold ratio %v: PolicyByName accepted it", v)
		}
	}
}

// FuzzParseAutoscaler: the -autoscale grammar never panics, and any spec
// that parses and then validates against a 16-node cluster keeps its
// gains ordered inside [0, 1] and its node bounds inside the cluster.
func FuzzParseAutoscaler(f *testing.F) {
	for _, s := range []string{
		"", "on", "min=2,max=4,up-util=0.9,down-util=0.5,step=2,cooldown=8",
		"min=1", "max=16", "up-util=0.95", "down-util=0.1", "step=3", "cooldown=5",
		"up-util=NaN", "down-util=NaN", "up-util=Inf", "down-util=-Inf", "up-util=1e400",
		"min=,max=", "=,=", "up-util=0x1p-1,down-util=0",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseAutoscaler(s)
		if err != nil || a.validate(16) != nil {
			return
		}
		if !(0 <= a.DownUtil && a.DownUtil < a.UpUtil && a.UpUtil <= 1) {
			t.Fatalf("%q: accepted gains down-util=%v up-util=%v", s, a.DownUtil, a.UpUtil)
		}
		if a.MinNodes < 1 || a.MinNodes > a.MaxNodes || a.MaxNodes > 16 || a.Step < 1 || a.Cooldown < 1 {
			t.Fatalf("%q: accepted out-of-range autoscaler %+v", s, *a)
		}
	})
}

func TestParseAutoscaler(t *testing.T) {
	a, err := ParseAutoscaler("min=2,max=4,up-util=0.9,down-util=0.5,step=2,cooldown=8")
	if err != nil {
		t.Fatal(err)
	}
	want := Autoscaler{MinNodes: 2, MaxNodes: 4, UpUtil: 0.9, DownUtil: 0.5, Step: 2, Cooldown: 8}
	if *a != want {
		t.Fatalf("got %+v, want %+v", *a, want)
	}
	for _, s := range []string{"", "on"} {
		a, err := ParseAutoscaler(s)
		if err != nil || *a != (Autoscaler{}) {
			t.Fatalf("ParseAutoscaler(%q) = %+v, %v; want all defaults", s, a, err)
		}
	}
	for _, s := range []string{"bogus", "min", "min=x", "up-util=a,b"} {
		if _, err := ParseAutoscaler(s); err == nil {
			t.Errorf("ParseAutoscaler(%q) accepted invalid grammar", s)
		}
	}
}

// TestParseAutoscalerSharedGrammar: the -autoscale grammar follows the
// shared key=value rules — an empty entry is an error, integer keys
// take integral float literals, and a non-finite gain fails at parse
// time, not first in validate.
func TestParseAutoscalerSharedGrammar(t *testing.T) {
	for _, s := range []string{",", "min=2,", "min=2,,max=3", "up-util=NaN"} {
		if a, err := ParseAutoscaler(s); err == nil {
			t.Errorf("ParseAutoscaler(%q) = %+v, want an error", s, *a)
		}
	}
	for s, want := range map[string]Autoscaler{
		"min=2.0":      {MinNodes: 2},
		"step=1e1":     {Step: 10},
		"cooldown=1e1": {Cooldown: 10},
	} {
		if a, err := ParseAutoscaler(s); err != nil || *a != want {
			t.Errorf("ParseAutoscaler(%q) = %v, %v; want %+v", s, a, err, want)
		}
	}
}
