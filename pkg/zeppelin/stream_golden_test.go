package zeppelin

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"testing"
)

// The stream golden pins every campaign mode bit for bit through the
// public API: per cell, the SHA-256 of the NDJSON event stream, of the
// decision log, and of the summary, classes and per-rank utilization.
// The campaign goldens of internal/experiments compare seed-averaged
// summaries at 0.2%; this one allows nothing, so a change to the
// campaign step that moves one event by one bit names the cell it moved.

// streamCell is one campaign of the stream golden. exercised reports
// whether the drained stream shows the feature the cell is there for.
type streamCell struct {
	name      string
	req       CampaignRequest
	opts      []CampaignOption
	feature   string
	exercised func(*CampaignReport, []DecisionRecord) bool
}

// streamDigest is one cell's pinned hashes.
type streamDigest struct{ events, decisions, report string }

func streamCells() []streamCell {
	drift := WorkloadSpec{Arrival: "drift"}
	withMethod := func(req CampaignRequest, m string) CampaignRequest {
		req.Method = m
		return req
	}
	return []streamCell{
		{"zeppelin/drift/threshold", CampaignRequest{Workload: drift, Iters: 20}, nil,
			"a replan and a reuse verdict", func(_ *CampaignReport, recs []DecisionRecord) bool {
				return countDecisions(recs, "replan", "replan") > 0 && countDecisions(recs, "replan", "reuse") > 0
			}},
		{"zeppelin/drift/always", CampaignRequest{Workload: drift, Policy: PolicySpec{Name: "always"}, Iters: 20}, nil,
			"a replan every iteration", func(rep *CampaignReport, _ []DecisionRecord) bool {
				return countEvents(rep, func(ev CampaignEvent) bool { return ev.Replanned }) == len(rep.Events)
			}},
		{"hybriddp/drift", CampaignRequest{Workload: drift, Method: "hybriddp", Iters: 20}, nil,
			"replan records", func(_ *CampaignReport, recs []DecisionRecord) bool {
				return countDecisions(recs, "replan", "") > 0
			}},
		{"tecp/steady", CampaignRequest{Method: "tecp", Iters: 10}, nil,
			"a shape-independent stream with no replan records", func(rep *CampaignReport, recs []DecisionRecord) bool {
				return len(rep.Events) == 10 && countDecisions(recs, "replan", "") == 0
			}},
		{"zeppelin/straggler", CampaignRequest{Faults: "straggler", Iters: 12}, nil,
			"a fault event", func(rep *CampaignReport, _ []DecisionRecord) bool {
				return countEvents(rep, func(ev CampaignEvent) bool { return len(ev.Events) > 0 }) > 0
			}},
		{"zeppelin/failstop", CampaignRequest{Faults: "failstop", Iters: 12}, nil,
			"a recovery charge", recovered},
		{"zeppelin/shrink", CampaignRequest{Faults: "shrink", Iters: 12}, nil,
			"a recovery charge", recovered},
		{"zeppelin/drift/autoscale", CampaignRequest{Workload: drift, Iters: 10,
			Autoscale: &AutoscaleSpec{UpUtil: 0.95, DownUtil: 0.9, Cooldown: 2}}, nil,
			"scale records", func(_ *CampaignReport, recs []DecisionRecord) bool {
				return countDecisions(recs, "scale", "") > 0
			}},
		{"zeppelin/drift/flip", CampaignRequest{Workload: drift, Iters: 20},
			[]CampaignOption{WithCampaignFlip(FlipSpec{Iter: 10, Decision: "reuse"})},
			"a flipped event", func(rep *CampaignReport, _ []DecisionRecord) bool {
				return countEvents(rep, func(ev CampaignEvent) bool { return ev.Flipped }) == 1
			}},
		{"zeppelin/steady/capacity0.5", CampaignRequest{Cluster: ClusterSpec{Capacity: 0.5}, Iters: 5}, nil,
			"deferred tokens", func(rep *CampaignReport, recs []DecisionRecord) bool {
				return countEvents(rep, func(ev CampaignEvent) bool { return ev.Deferred > 0 }) > 0 &&
					countDecisions(recs, "admission", "trim") > 0
			}},
		{"zeppelin/serve/balance", serveReq("balance"), nil, "route records", routed},
		{"zeppelin/serve/affinity", serveReq("affinity"), nil, "route records", routed},
		{"hybriddp/serve/affinity", withMethod(serveReq("affinity"), "hybriddp"), nil, "route records", routed},
		{"zeppelin/serve/trace", recordedServeReq(), nil, "route records", routed},
	}
}

// recordedServeReq is serveReq("affinity") replayed from its own
// timeline, written to NDJSON and read back.
func recordedServeReq() CampaignRequest {
	req := serveReq("affinity")
	events, err := GenerateServeTimeline(req.Serve, req.Seed)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := WriteServeTrace(&buf, events); err != nil {
		panic(err)
	}
	if req.Serve.Trace, err = ReadServeTrace(&buf); err != nil {
		panic(err)
	}
	req.Serve.TraceName = "recorded"
	return req
}

func recovered(rep *CampaignReport, _ []DecisionRecord) bool {
	return countEvents(rep, func(ev CampaignEvent) bool { return ev.Recovery > 0 }) > 0
}

func routed(_ *CampaignReport, recs []DecisionRecord) bool {
	return countDecisions(recs, "route", "") > 0
}

func countEvents(rep *CampaignReport, f func(CampaignEvent) bool) int {
	n := 0
	for _, ev := range rep.Events {
		if f(ev) {
			n++
		}
	}
	return n
}

// countDecisions counts records of kind, chosen as given ("" for any).
func countDecisions(recs []DecisionRecord, kind, chosen string) int {
	n := 0
	for _, r := range recs {
		if string(r.Kind) == kind && (chosen == "" || r.Chosen == chosen) {
			n++
		}
	}
	return n
}

// digestStream drains one cell with decision recording and hashes its
// three outputs.
func digestStream(t *testing.T, sc streamCell) streamDigest {
	t.Helper()
	c, err := drainCampaign(context.Background(), sc.req, append([]CampaignOption{WithCampaignDecisions()}, sc.opts...)...)
	if err != nil {
		t.Fatalf("%s: %v", sc.name, err)
	}
	rep := c.Report()
	recs := c.Decisions()
	if !sc.exercised(rep, recs) {
		t.Errorf("%s: stream shows no %s", sc.name, sc.feature)
	}
	events, err := eventStreamBytes(rep.Events)
	if err != nil {
		t.Fatal(err)
	}
	var decisions bytes.Buffer
	if err := WriteDecisionNDJSON(&decisions, "", recs); err != nil {
		t.Fatal(err)
	}
	report, err := json.Marshal(struct {
		Summary     CampaignSummary
		Classes     []ClassMetrics
		PerRankUtil []float64
	}{rep.Summary, rep.Classes, rep.PerRankUtil})
	if err != nil {
		t.Fatal(err)
	}
	sum := func(b []byte) string { return fmt.Sprintf("%x", sha256.Sum256(b)) }
	return streamDigest{sum(events), sum(decisions.Bytes()), sum(report)}
}

// TestCampaignStreamGolden pins every cell of streamCells. A failure
// prints a replacement line for each cell that moved.
func TestCampaignStreamGolden(t *testing.T) {
	var moved []string
	seen := make(map[string]bool)
	for _, sc := range streamCells() {
		seen[sc.name] = true
		got := digestStream(t, sc)
		if want, ok := streamGolden[sc.name]; !ok || got != want {
			moved = append(moved, fmt.Sprintf("%q: {%q, %q, %q}, // was %+v", sc.name, got.events, got.decisions, got.report, want))
		}
	}
	for name := range streamGolden {
		if !seen[name] {
			moved = append(moved, fmt.Sprintf("%q: pinned but not run", name))
		}
	}
	sort.Strings(moved)
	if len(moved) > 0 {
		t.Errorf("%d of %d campaign streams differ from the golden:\n%s", len(moved), len(seen), strings.Join(moved, "\n"))
	}
}

// streamGolden holds each cell's {events, decisions, report} digests.
var streamGolden = map[string]streamDigest{
	"hybriddp/drift":              {"f9dfae3e3c860bf6d473e7dcd07b704c3c4742bef6e40734ecdcab8e966de8f9", "dbba9ace67d7869739d718138047eb4adae610aa6b9f035f9cdaf24c313465d3", "a7370131c2bc1d3002a85599dc92f67857820d8b2649f1f1a94a1ce2ca208a95"},
	"hybriddp/serve/affinity":     {"8073d36700b77767bbb02aa7b6b0c2559483f8ffe694e9b124936623c69f88ee", "ca8b21ce0f193f321c2de856e33fb7956fb55c650065dba2c4ced7b2cf45a03e", "30be9e9fb82509d66022dab47feb1e28aec5ba00e736d523eaaee719fdeb23ff"},
	"tecp/steady":                 {"fe384414dd7b34754bd6d6b31a7c9dce0cdbd82fd7777c9a592922acb49333ba", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855", "aa4b3f50e113b08e3b41aab3a4f133646087e89bbd29c7ada9651e3c20be1b7c"},
	"zeppelin/drift/always":       {"8fd63fff24139bdc7cde09307a04bf5544328bb2b80bcb4277153df8a2aed278", "bec17630186fabb430fdc85115ef691ee7326fe94c8fdf5746866c0ef04c31cf", "bd8c4e29eb26b833f91782e958751f84e2445e39f471852f805466467575c4ed"},
	"zeppelin/drift/autoscale":    {"c4cb7f0ec2c5807875e84ca135afeedd117311b292b09ecc562a75e205bd6a08", "6f9e1ec59a2295a5af73ccea524fb46400c935b65c670969b47742b4875cc7c0", "6ab63646b6e3fb9a223c24e32826807c3084416654f0c654e971013fc7515208"},
	"zeppelin/drift/flip":         {"4fbcec51b761924b0d1f129282206ba16884f925280602742fcdc608f0b66a4d", "9f6466345a71a2b8f6f367734631d82fe61925a93db8ba0b1a56b6237a11feec", "f11ac7d8cf016b0ce324962dd0aeafd9cc1072cfb56101b780ee808e28a37053"},
	"zeppelin/drift/threshold":    {"0183b96b1a760e907048ae0814dbd65d49be6f807f3bf29d85fab998962b2cc0", "13ae595a9be522e96edb482dd2b4df12e82700f40742c4e8b05c77ef842383f7", "dafd40b7630091668d734be3f9e3273c6118b546080e0ab9545d6ddfab3057f3"},
	"zeppelin/failstop":           {"b2574bcb1b466ff9d954a8ea3ed23846749bfe3431e475da3a98ad44457a2eff", "dab5966f63c8992ecc64633ee4147b1856fc354317fd499cc058d456d985d723", "df9809883846e44e7adb3e2bc2231c9e73d5b06f7a82cb6e2c84849f5c96b359"},
	"zeppelin/serve/affinity":     {"e89f0a1cd838f01f54d54448cbe0fb9190eabc09357f52bab8d10e67fdff80af", "629c906cdf368132e3f5d9a7b74895fd9574789477f65d09ab51fd4ad86e073a", "bcac1cf09f64d76eb1fbd05d98c66a4589f71107fd31a1616e5841b7db8fa6cf"},
	"zeppelin/serve/balance":      {"d8dfb352db4478662d4a2033de569035358bfae33ad95ca63736dbeb7e89b5ae", "8867e2d1878b2d252a4e9a6624130d631147784ef1041d6d6c34b15387fb5de5", "a6f62d4406aa465c52185eaaa421edbf5d3647afb80cb70a37cc795968c26dcf"},
	"zeppelin/serve/trace":        {"e89f0a1cd838f01f54d54448cbe0fb9190eabc09357f52bab8d10e67fdff80af", "629c906cdf368132e3f5d9a7b74895fd9574789477f65d09ab51fd4ad86e073a", "c84473e81fbcdc38e99063f47e3efe418fb72bcdd76d37903a616ac42e99747d"},
	"zeppelin/shrink":             {"4cc4b27bcd93502149a4278bf9fa4c81ec37ed87f41ee1f7e4b39e5afb649b75", "5ab7c3b4ddda4d6adbacc5c8c53fc7059e21241dce9783eb953e0ce7ee72b738", "0aea55589d59ac9e69f82aacf4596d7b94edf5346a7471053f8fc6c33afd1c62"},
	"zeppelin/steady/capacity0.5": {"4e4f3f1341e18bb1bf9003cfdf71637011af05f5f4e60a72e547713e422e6d3d", "a21d87090e4562b83ffaa92d1a20bddfba3249501e2345888f4632bf0feb43c3", "4c2385b2befd70d40ff227355e5e194d375cb59a20bdf38027b16549b300c89b"},
	"zeppelin/straggler":          {"46488f30bf119275b356d0978ac7cec93db55b58aa9597e21b0758b22e59abca", "d972ff428194991bd8ff06b08eadc663aa398b9df0fbe4ac89ba8c65757e7a3c", "ce1022e537154132584b3ca6e69b231fb4f90609967eb8ae930efa4775ea05ec"},
}
