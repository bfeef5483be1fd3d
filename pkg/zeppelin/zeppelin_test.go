package zeppelin

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"strings"
	"testing"

	"zeppelin/internal/campaign"
	"zeppelin/internal/cluster"
	"zeppelin/internal/model"
	"zeppelin/internal/trainer"
	"zeppelin/internal/workload"
	zep "zeppelin/internal/zeppelin"
)

// TestRunCampaignMatchesInternalRun pins the request-resolution
// defaults: a default CampaignRequest drained through the public API
// must be bit-identical to internal campaign.Run on the hand-built
// equivalent configuration. Equality is asserted on the JSON wire bytes
// of every event.
func TestRunCampaignMatchesInternalRun(t *testing.T) {
	const iters = 20
	rep, err := RunCampaign(context.Background(), CampaignRequest{Iters: iters})
	if err != nil {
		t.Fatal(err)
	}
	want, err := campaign.Run(context.Background(), campaign.Config{
		Trainer: trainer.Config{
			Model: model.LLaMA7B, Spec: cluster.ClusterA, Nodes: 2, TP: 1,
			TokensPerGPU: 4096, Seed: DefaultSeed,
		},
		Method:  zep.Full(),
		Iters:   iters,
		Arrival: campaign.Steady{D: workload.ArXiv},
		Policy:  campaign.Threshold{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Events) != len(want.Records) {
		t.Fatalf("public API produced %d events, internal run %d records", len(rep.Events), len(want.Records))
	}
	for i := range rep.Events {
		got, err := json.Marshal(rep.Events[i])
		if err != nil {
			t.Fatal(err)
		}
		exp, err := json.Marshal(want.Records[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, exp) {
			t.Fatalf("event %d differs from internal record:\n got %s\nwant %s", i, got, exp)
		}
	}
	gotSum, _ := json.Marshal(rep.Summary)
	expSum, _ := json.Marshal(want.Summary)
	if !bytes.Equal(gotSum, expSum) {
		t.Fatalf("summary differs:\n got %s\nwant %s", gotSum, expSum)
	}
}

// TestCampaignCacheMatchesUncached: the shared plan tier must not move
// a single byte of a campaign report, whether it is cold or already
// holds every plan the campaign solves (exact-mode property, through the
// public API).
func TestCampaignCacheMatchesUncached(t *testing.T) {
	req := CampaignRequest{Iters: 10, Workload: WorkloadSpec{Arrival: "drift", DriftPath: []string{"arxiv", "github"}}}
	plain, err := RunCampaign(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(plain)
	cache := NewPlanCache(0)
	for _, state := range []string{"cold", "warm"} {
		got, err := drainCampaign(context.Background(), req, WithCampaignPlanCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(got.Report())
		if !bytes.Equal(b, want) {
			t.Fatalf("campaign report over a %s plan cache differs from the uncached one", state)
		}
		if st := cache.Stats(); state == "warm" && st.Hits == 0 {
			t.Fatalf("warm cache served no plan: %+v", st)
		}
	}
}

// TestCampaignCancellation: a cancelled context stops the public stream
// and surfaces through Err.
func TestCampaignCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	camp, err := StartCampaign(ctx, CampaignRequest{Iters: 100})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := camp.Next(); !ok {
		t.Fatalf("first event failed: %v", camp.Err())
	}
	cancel()
	if _, ok := camp.Next(); ok {
		t.Fatal("Next must stop after cancellation")
	}
	if !errors.Is(camp.Err(), context.Canceled) {
		t.Fatalf("Err = %v, want context.Canceled", camp.Err())
	}
	if n := len(camp.Report().Events); n != 1 {
		t.Fatalf("partial report has %d events, want 1", n)
	}
}

// TestCampaignRunsOnce: a campaign session owns one stream.
func TestCampaignRunsOnce(t *testing.T) {
	camp, err := NewCampaign(CampaignRequest{Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := camp.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := camp.Start(context.Background()); err == nil {
		t.Fatal("second Start must fail")
	}
}

// TestPlanResponseShape: a default plan fills the placement facts and
// the simulated readout, and the plan conserves the batch's tokens.
func TestPlanResponseShape(t *testing.T) {
	resp, err := Plan(context.Background(), PlanRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.World != 16 {
		t.Fatalf("world = %d, want 16 (two Cluster A nodes)", resp.World)
	}
	if resp.Method != "Zeppelin" {
		t.Fatalf("method = %q", resp.Method)
	}
	sum := 0
	for _, tok := range resp.TokensPerRank {
		sum += tok
	}
	if sum != resp.Tokens {
		t.Fatalf("plan places %d of %d tokens", sum, resp.Tokens)
	}
	if resp.Imbalance < 1 {
		t.Fatalf("imbalance = %v, want >= 1", resp.Imbalance)
	}
	if resp.TokensPerSec <= 0 || resp.IterTimeSec <= 0 {
		t.Fatalf("simulated readout missing: %+v", resp)
	}
	if resp.RemapTransfers == 0 {
		t.Fatal("full Zeppelin must carry a remap solution")
	}
}

// TestPlannerCacheMatchesUncached: a repeated plan through a shared
// plan cache is served from it, and both answers are byte-identical to a
// cache-less planner's.
func TestPlannerCacheMatchesUncached(t *testing.T) {
	plain, err := Plan(context.Background(), PlanRequest{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(plain)
	cache := NewPlanCache(0)
	p := NewPlanner(WithPlanCache(cache))
	for i := 0; i < 2; i++ {
		resp, err := p.Plan(context.Background(), PlanRequest{})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := json.Marshal(resp); !bytes.Equal(got, want) {
			t.Fatalf("plan %d through the cache differs from the cache-less answer:\n got %s\nwant %s", i, got, want)
		}
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats = %+v, want 1 hit and 1 miss", st)
	}
}

// TestIdenticalPlansAreByteIdentical: one request planned many times
// gets one response. On one DP rank of an MoE model, Hybrid DP's linear
// load sums the MoE weights of every sequence in the batch, so the
// iteration time's last bits depend on a summation order that must not
// change between calls.
func TestIdenticalPlansAreByteIdentical(t *testing.T) {
	var req PlanRequest
	if err := json.Unmarshal([]byte(`{"model":"8x550M","method":"hybriddp","dataset":"github","seed":1037,
		"cluster":{"preset":"A","nodes":1,"tp":8,"tokens_per_gpu":4096}}`), &req); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for i := 0; i < 100; i++ {
		resp, err := Plan(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(resp)
		seen[string(b)]++
	}
	if len(seen) != 1 {
		var counts []int
		for _, n := range seen {
			counts = append(counts, n)
		}
		t.Fatalf("100 identical requests got %d distinct responses (counts %v)", len(seen), counts)
	}
}

// TestBadRequestsAreRejected: unknown identifiers fail resolution with
// descriptive errors.
func TestBadRequestsAreRejected(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{PlanRequest{Method: "warp"}.Validate(), "unknown method"},
		{PlanRequest{Model: "900B"}.Validate(), "unknown model"},
		{PlanRequest{Cluster: ClusterSpec{Preset: "Z"}}.Validate(), "unknown cluster"},
		{PlanRequest{Dataset: "imaginary"}.Validate(), "unknown dataset"},
		{CampaignRequest{}.Validate(), "iters"},
		{CampaignRequest{Iters: 5, Workload: WorkloadSpec{Arrival: "warp"}}.Validate(), "unknown arrival"},
		{CampaignRequest{Iters: 5, Policy: PolicySpec{Name: "vibes"}}.Validate(), "unknown replan policy"},
		{CampaignRequest{Iters: 5, Faults: "bogus"}.Validate(), "unknown scenario"},
	}
	for i, tc := range cases {
		if tc.err == nil || !strings.Contains(tc.err.Error(), tc.want) {
			t.Errorf("case %d: error %v does not mention %q", i, tc.err, tc.want)
		}
	}
}

// TestCompareCampaignsDeterministicAcrossWorkers: the comparison grid is
// bit-identical at every pool size, and its JSON artifact carries the
// four methods in Fig. 8 order.
func TestCompareCampaignsDeterministicAcrossWorkers(t *testing.T) {
	req := CampaignRequest{Iters: 5}
	serial, err := CompareCampaigns(context.Background(), req, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := CompareCampaigns(context.Background(), req, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := serial.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := parallel.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("comparison artifact differs across worker counts")
	}
	var art struct {
		Rows []struct {
			Method string `json:"method"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(a.Bytes(), &art); err != nil {
		t.Fatal(err)
	}
	want := []string{"TE CP", "LLaMA CP", "Hybrid DP", "Zeppelin"}
	if len(art.Rows) != len(want) {
		t.Fatalf("artifact has %d rows, want %d", len(art.Rows), len(want))
	}
	for i, w := range want {
		if art.Rows[i].Method != w {
			t.Fatalf("row %d method = %q, want %q", i, art.Rows[i].Method, w)
		}
	}
}

// TestCompareCampaignsLeavesAutoscaleSpecUntouched: validation fills an
// autoscaler's defaults in place, so every grid cell must run on its own
// copy. The caller's spec stays as written, and (under -race) the
// concurrently run cells share no autoscaler.
func TestCompareCampaignsLeavesAutoscaleSpecUntouched(t *testing.T) {
	want := AutoscaleSpec{UpUtil: 0.95, DownUtil: 0.9, Cooldown: 2}
	spec := want
	req := CampaignRequest{Iters: 4, Autoscale: &spec}
	if _, err := CompareCampaigns(context.Background(), req, 2, 4); err != nil {
		t.Fatal(err)
	}
	if spec != want {
		t.Fatalf("CompareCampaigns rewrote the request's autoscale spec to %+v, want %+v", spec, want)
	}
}

// TestCampaignReportIsACopy: a report's events belong to the caller.
// Editing one report must not reach the stream's records, which later
// reports are built from.
func TestCampaignReportIsACopy(t *testing.T) {
	camp, err := StartCampaign(context.Background(), CampaignRequest{Iters: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := camp.Next(); !ok {
		t.Fatalf("first event failed: %v", camp.Err())
	}
	early := camp.Report()
	tokens := early.Events[0].Tokens
	early.Events[0].Tokens = -1
	for {
		if _, ok := camp.Next(); !ok {
			break
		}
	}
	if err := camp.Err(); err != nil {
		t.Fatal(err)
	}
	if got := camp.Report().Events[0].Tokens; got != tokens {
		t.Fatalf("editing an earlier report changed event 0's tokens to %d, want %d", got, tokens)
	}
}

// TestVersionIdentifiesAPI: the version payload names the module, the
// API revision, and the toolchain.
func TestVersionIdentifiesAPI(t *testing.T) {
	v := Version()
	if v.Module != "zeppelin" {
		t.Fatalf("module = %q", v.Module)
	}
	if v.APIVersion != "v1" {
		t.Fatalf("api version = %q", v.APIVersion)
	}
	if !strings.HasPrefix(v.GoVersion, "go") {
		t.Fatalf("go version = %q", v.GoVersion)
	}
}

// TestExperimentsSurface: the experiment list matches the dispatchers.
// Under a cancelled context every listed name runs and renders to a
// result or context.Canceled, never "unknown experiment".
func TestExperimentsSurface(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, name := range Experiments() {
		if !IsExperiment(name) {
			t.Fatalf("listed experiment %q not recognized", name)
		}
		if _, err := RunExperiment(ctx, name, Options{Seeds: 1}); err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("RunExperiment(%q) = %v, want a result or context.Canceled", name, err)
		}
		if err := RenderExperiment(ctx, io.Discard, name, Options{Seeds: 1}); err != nil && !errors.Is(err, context.Canceled) {
			t.Errorf("RenderExperiment(%q) = %v, want a rendering or context.Canceled", name, err)
		}
	}
	if IsExperiment("all") || IsExperiment("fig99") {
		t.Fatal("non-experiments recognized")
	}
	if _, err := RunExperiment(context.Background(), "fig99", Options{}); err == nil {
		t.Fatal("unknown experiment must fail")
	}
}
