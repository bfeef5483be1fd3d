package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"zeppelin/internal/baselines"
	"zeppelin/internal/campaign"
	"zeppelin/internal/decision"
	"zeppelin/internal/faults"
	"zeppelin/internal/partition"
	"zeppelin/internal/trainer"
	zep "zeppelin/internal/zeppelin"
)

// The traced replay of a plan request answers byte for byte what the
// public planner answers, for every method.
func TestReplayMatchesPublicPlan(t *testing.T) {
	ctx := context.Background()
	a, err := newAPI()
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	shared := partition.NewSharedCache(0)
	// The first three panels: 7B at 64k, 128k and 256k, every dataset
	// and method.
	for _, req := range fig8Pass(unitSeed(3, 0))[:36] {
		pub, err := a.planner.Plan(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := replayPlan(tr, shared, req)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(pub)
		gotB, _ := json.Marshal(got)
		if !bytes.Equal(gotB, want) {
			t.Errorf("%s/%s/%s/%d nodes: replay %s\npublic %s", req.Model, req.Dataset, req.Method, req.Cluster.Nodes, gotB, want)
		}
		if tr.marks[0].kind != mOpStart || tr.marks[len(tr.marks)-1].kind != mOpEnd {
			t.Errorf("replay marks do not open and close the op")
		}
	}
}

// The traced campaign engine, driven with the benchmark's resolved
// config and decorated method, reproduces the public campaign's events
// and summary, and records as many decisions.
func TestTracedCampaignsMatchPublic(t *testing.T) {
	ctx := context.Background()
	a, err := newAPI()
	if err != nil {
		t.Fatal(err)
	}
	shared := partition.NewSharedCache(0)
	for _, wl := range []string{campaignDrift, serveBurst} {
		seed := unitSeed(5, 0)
		req := driftRequest(seed)
		build := driftConfig
		if wl == serveBurst {
			req = serveRequest(a.serve, seed)
			build = serveConfig
		}
		pc, err := a.newCampaign(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := pc.Start(ctx); err != nil {
			t.Fatal(err)
		}
		for {
			if _, ok := pc.Next(); !ok {
				break
			}
		}
		if err := pc.Err(); err != nil {
			t.Fatal(err)
		}
		want, _ := json.Marshal(pc.Report())

		cfg, err := build(seed, shared)
		if err != nil {
			t.Fatal(err)
		}
		tr := newTracer()
		if cfg.Method, err = decorate(cfg.Method, tr, true); err != nil {
			t.Fatal(err)
		}
		if cfg.Arrival != nil {
			cfg.Arrival = tracedArrival{inner: cfg.Arrival, tr: tr}
		}
		rep, err := traceCampaign(ctx, tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := wireReport(rep)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: traced report differs from the public one", wl)
		}
		if n, m := len(cfg.Decisions.Records()), len(pc.Decisions()); n != m {
			t.Errorf("%s: traced campaign recorded %d decisions, public %d", wl, n, m)
		}
		if len(tr.calls) != len(rep.Records) {
			t.Errorf("%s: %d plans traced over %d events", wl, len(tr.calls), len(rep.Records))
		}
	}
}

// Decoration never changes what a campaign does, whichever optional
// interfaces the method implements: shape-independent baselines, a
// speed-aware stateless planner under a straggler, and a stateful
// planner that reports plan modes.
func TestDecoratorIsTransparent(t *testing.T) {
	ctx := context.Background()
	const iters = 16
	methods := []struct {
		name string
		make func() trainer.Method
		zep  bool
	}{
		{"tecp", func() trainer.Method { return baselines.TECP{} }, false},
		{"hybriddp", func() trainer.Method { return baselines.HybridDP{} }, false},
		{"zeppelin", func() trainer.Method { return zep.Full() }, true},
		{"incremental", func() trainer.Method {
			return zep.NewIncremental(zep.Full(), partition.IncrementalConfig{MaxDeltaFrac: 0.2})
		}, true},
	}
	for _, m := range methods {
		for _, fault := range []string{"none", "straggler"} {
			run := func(decorated bool) ([]byte, []byte) {
				cfg, err := driftConfig(11, nil)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Iters = iters
				cfg.Method = m.make()
				cfg.Decisions = &decision.Trace{}
				if cfg.Faults, err = faults.ByName(fault, iters, cfg.Trainer.Nodes, cfg.Trainer.EffectiveSpec().GPUsPerNode); err != nil {
					t.Fatal(err)
				}
				if decorated {
					tr := newTracer()
					if cfg.Method, err = decorate(cfg.Method, tr, m.zep); err != nil {
						t.Fatal(err)
					}
					cfg.Arrival = tracedArrival{inner: cfg.Arrival, tr: tr}
				}
				rep, err := campaign.Run(ctx, cfg)
				if err != nil {
					t.Fatal(err)
				}
				r, _ := json.Marshal(rep)
				d, _ := json.Marshal(cfg.Decisions.Records())
				return r, d
			}
			r0, d0 := run(false)
			r1, d1 := run(true)
			if !bytes.Equal(r0, r1) {
				t.Errorf("%s/%s: decorated campaign report differs", m.name, fault)
			}
			if !bytes.Equal(d0, d1) {
				t.Errorf("%s/%s: decorated campaign decisions differ", m.name, fault)
			}
		}
	}
}

// Every interval between two marks the replay and the campaigns emit is
// attributed to a layer, except the benchmark's own gaps between the
// replay's top-level calls.
func TestAttributionCoversKnownSequences(t *testing.T) {
	tr := newTracer()
	shared := partition.NewSharedCache(0)
	if _, _, err := replayPlan(tr, shared, fig8Pass(9)[3]); err != nil {
		t.Fatal(err)
	}
	s := tr.fold(false, true)
	var total int64
	for _, v := range s.cpu {
		total += v
	}
	if s.cpu[lZepPlan] == 0 || s.cpu[lAttn] == 0 || s.cpu[lSim] == 0 {
		t.Errorf("replay of a Zeppelin plan attributed no plan, attention or sim time: %+v", s.cpu)
	}
	for i := 1; i < len(tr.marks); i++ {
		a, b := tr.marks[i-1].kind, tr.marks[i].kind
		if attribute(a, b, false) == lUnattributed {
			switch {
			case a == mOpStart && b == mBatchStart,
				a == mBatchEnd && b == mEnvStart,
				a == mEnvEnd && b == mZepPlanStart,
				a == mRunEnd && b == mOpEnd:
			default:
				t.Errorf("interval %d->%d is unattributed", a, b)
			}
		}
	}
}
