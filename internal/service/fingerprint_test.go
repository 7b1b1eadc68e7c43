package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/simulate"
	"nfvchain/internal/wirejson"
	"nfvchain/internal/workload"
)

// fingerprintProblem is a fixed instance whose strings and numbers exercise
// every escaping and float-formatting rule of the canonical encoding: HTML
// characters, quotes, control bytes, U+2028, non-ASCII, tiny and huge
// floats, and extra-resource vectors.
func fingerprintProblem() *model.Problem {
	return &model.Problem{
		Nodes: []model.Node{
			{ID: "n<1>", Name: "rack \"A\" & co", Capacity: 1e21, Extras: []float64{4, 1e-7}},
			{ID: "n\u2028two", Name: "tab\there\u2028next", Capacity: 12.5, Extras: []float64{8, 0.25}},
		},
		VNFs: []model.VNF{
			{ID: "fw\\1", Name: "pare-feu", Category: "sécurité", Instances: 2, Demand: 1.5, ServiceRate: 40, Extras: []float64{1, 5e-324}},
			{ID: "nat\x01", Category: "bad \xff utf8", Instances: 1, Demand: 0, ServiceRate: 1.7976931348623157e308, Extras: []float64{0, 0}},
		},
		Requests: []model.Request{
			{ID: "r1", Chain: []model.VNFID{"fw\\1", "nat\x01"}, Rate: 6, DeliveryProb: 0.95},
			{ID: "r2 ✓", Chain: []model.VNFID{"fw\\1"}, Rate: 8.125, DeliveryProb: 1},
		},
	}
}

// TestFingerprintPinned pins the result-cache key of a fixed solve and a
// fixed simulate request. The constants were computed with the reflection
// encoder of encoding/json; any codec change that alters them would split
// existing caches.
func TestFingerprintPinned(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.Seed = 7
	cfg.NumRequests = 60
	generated, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	solution := json.RawMessage(`{"problem": {"nodes": []}, "placement": null,
		"schedule": {"instanceOf": {"r1": {"fw": 1}}}}`)
	cases := []struct {
		name, kind string
		req        any
		want       string
	}{
		{"solve/fixed", "solve", &SolveRequest{
			Problem: fingerprintProblem(),
			Options: SolveOptions{Placer: "ffd", LinkDelay: 0.25, Seed: 3},
		}, "2ec07a95accb929819542e1ea6f9a7ea49e5926e906bec0757cba29f1471d706"},
		{"solve/generated", "solve", &SolveRequest{
			Problem: generated,
			Options: SolveOptions{Seed: 11},
		}, "2ee66e756e078ee068a1567b0c709cbcd7b2244a529d236e280f6ae54c958c21"},
		{"simulate/problem", "simulate", &SimulateRequest{
			Problem: fingerprintProblem(),
			Sim: SimOptions{Horizon: 2.5, Seed: 9, DropPolicy: "retransmit", FaultPlan: &simulate.FaultPlan{
				MTBF: 30, MTTR: 1e-7,
				Outages: []simulate.Outage{{Node: "n<1>", DownAt: 0.5, UpAt: 1}},
			}},
		}, "e13d12ceea7a104c64f7682a48e0b7e7183f944ff3fae6b5358b13b4a10ecc2b"},
		{"simulate/solution", "simulate", &SimulateRequest{
			Solution: solution,
			Sim:      SimOptions{Horizon: 1, Agenda: "ladder"},
		}, "8506b5820087041a8988fe3c13e31a05ce751e52a07ffa2f5cf1cd75e4d0c1ef"},
	}
	for _, tc := range cases {
		got, err := fingerprint(tc.kind, tc.req)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

// TestFingerprintManyChunks keys a request whose canonical encoding spans
// many of the chunks fingerprint streams into the hash, with escaped IDs
// throughout, and checks the key against SHA-256 over the whole Marshal
// output.
func TestFingerprintManyChunks(t *testing.T) {
	p := fingerprintProblem()
	for i := 0; i < 600; i++ {
		p.Requests = append(p.Requests, model.Request{
			ID:    model.RequestID(fmt.Sprintf("<r %d&\"%s\x01", i, strings.Repeat("é", i%7))),
			Chain: []model.VNFID{"nat\x01", "fw\\1"}, Rate: float64(i) + 0.5, DeliveryProb: 0.9,
		})
	}
	req := &SolveRequest{Problem: p, Options: SolveOptions{Seed: 5}}
	canon, err := wirejson.Marshal(req.AppendWire)
	if err != nil {
		t.Fatal(err)
	}
	if len(canon) < 16<<10 {
		t.Fatalf("document of %d bytes is too short to span many chunks", len(canon))
	}
	want := sha256.Sum256(append([]byte("solve\x00"), canon...))
	got, err := fingerprint("solve", req)
	if err != nil {
		t.Fatal(err)
	}
	if got != hex.EncodeToString(want[:]) {
		t.Errorf("fingerprint %s, want SHA-256 over Marshal %x", got, want)
	}
}
