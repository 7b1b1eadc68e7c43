package model

import (
	"math"
	"strings"
	"testing"
)

func testProblem() *Problem {
	return &Problem{
		Nodes: []Node{
			{ID: "n1", Capacity: 100},
			{ID: "n2", Capacity: 50},
			{ID: "n3", Capacity: 200},
		},
		VNFs: []VNF{
			{ID: "fw", Name: "Firewall", Instances: 2, Demand: 10, ServiceRate: 100},
			{ID: "nat", Name: "NAT", Instances: 1, Demand: 30, ServiceRate: 150},
			{ID: "ids", Name: "IDS", Instances: 3, Demand: 5, ServiceRate: 80},
		},
		Requests: []Request{
			{ID: "r1", Chain: []VNFID{"fw", "nat"}, Rate: 10, DeliveryProb: 1},
			{ID: "r2", Chain: []VNFID{"fw"}, Rate: 20, DeliveryProb: 0.98},
			{ID: "r3", Chain: []VNFID{"ids", "fw", "nat"}, Rate: 5, DeliveryProb: 0.5},
		},
	}
}

func TestVNFTotalDemand(t *testing.T) {
	tests := []struct {
		name string
		vnf  VNF
		want float64
	}{
		{"single instance", VNF{Instances: 1, Demand: 7}, 7},
		{"multiple instances", VNF{Instances: 4, Demand: 2.5}, 10},
		{"zero demand", VNF{Instances: 3, Demand: 0}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.vnf.TotalDemand(); got != tt.want {
				t.Errorf("TotalDemand() = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestVNFValidate(t *testing.T) {
	tests := []struct {
		name    string
		vnf     VNF
		wantErr string
	}{
		{"valid", VNF{ID: "f", Instances: 1, Demand: 1, ServiceRate: 1}, ""},
		{"empty id", VNF{Instances: 1, ServiceRate: 1}, "empty id"},
		{"zero instances", VNF{ID: "f", Instances: 0, ServiceRate: 1}, "instances"},
		{"negative demand", VNF{ID: "f", Instances: 1, Demand: -1, ServiceRate: 1}, "negative demand"},
		{"zero service rate", VNF{ID: "f", Instances: 1, Demand: 1}, "service rate"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.vnf.Validate()
			checkErr(t, err, tt.wantErr)
		})
	}
}

func TestNodeValidate(t *testing.T) {
	tests := []struct {
		name    string
		node    Node
		wantErr string
	}{
		{"valid", Node{ID: "n", Capacity: 1}, ""},
		{"empty id", Node{Capacity: 1}, "empty id"},
		{"zero capacity", Node{ID: "n"}, "capacity"},
		{"negative capacity", Node{ID: "n", Capacity: -5}, "capacity"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			checkErr(t, tt.node.Validate(), tt.wantErr)
		})
	}
}

func TestRequestValidate(t *testing.T) {
	tests := []struct {
		name    string
		req     Request
		wantErr string
	}{
		{"valid", Request{ID: "r", Chain: []VNFID{"f"}, Rate: 1, DeliveryProb: 1}, ""},
		{"empty id", Request{Chain: []VNFID{"f"}, Rate: 1, DeliveryProb: 1}, "empty id"},
		{"empty chain", Request{ID: "r", Rate: 1, DeliveryProb: 1}, "empty chain"},
		{"zero rate", Request{ID: "r", Chain: []VNFID{"f"}, DeliveryProb: 1}, "rate"},
		{"p zero", Request{ID: "r", Chain: []VNFID{"f"}, Rate: 1}, "delivery probability"},
		{"p above one", Request{ID: "r", Chain: []VNFID{"f"}, Rate: 1, DeliveryProb: 1.5}, "delivery probability"},
		{"dup vnf in chain", Request{ID: "r", Chain: []VNFID{"f", "f"}, Rate: 1, DeliveryProb: 1}, "twice"},
		{"empty vnf id", Request{ID: "r", Chain: []VNFID{""}, Rate: 1, DeliveryProb: 1}, "empty vnf id"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			checkErr(t, tt.req.Validate(), tt.wantErr)
		})
	}
}

func TestRequestEffectiveRate(t *testing.T) {
	r := Request{Rate: 10, DeliveryProb: 0.5}
	if got := r.EffectiveRate(); got != 20 {
		t.Errorf("EffectiveRate() = %v, want 20", got)
	}
	r = Request{Rate: 10, DeliveryProb: 1}
	if got := r.EffectiveRate(); got != 10 {
		t.Errorf("EffectiveRate() with P=1 = %v, want 10", got)
	}
}

func TestRequestUses(t *testing.T) {
	r := Request{Chain: []VNFID{"a", "b"}}
	if !r.Uses("a") || !r.Uses("b") {
		t.Error("Uses() missed chain members")
	}
	if r.Uses("c") {
		t.Error("Uses() matched non-member")
	}
}

func TestProblemValidate(t *testing.T) {
	if err := testProblem().Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}

	t.Run("no nodes", func(t *testing.T) {
		p := testProblem()
		p.Nodes = nil
		checkErr(t, p.Validate(), "no nodes")
	})
	t.Run("no vnfs", func(t *testing.T) {
		p := testProblem()
		p.VNFs = nil
		checkErr(t, p.Validate(), "no vnfs")
	})
	t.Run("duplicate node", func(t *testing.T) {
		p := testProblem()
		p.Nodes = append(p.Nodes, Node{ID: "n1", Capacity: 1})
		checkErr(t, p.Validate(), "duplicate node")
	})
	t.Run("duplicate vnf", func(t *testing.T) {
		p := testProblem()
		p.VNFs = append(p.VNFs, VNF{ID: "fw", Instances: 1, ServiceRate: 1})
		checkErr(t, p.Validate(), "duplicate vnf")
	})
	t.Run("duplicate request", func(t *testing.T) {
		p := testProblem()
		p.Requests = append(p.Requests, Request{ID: "r1", Chain: []VNFID{"fw"}, Rate: 1, DeliveryProb: 1})
		checkErr(t, p.Validate(), "duplicate request")
	})
	t.Run("undefined vnf in chain", func(t *testing.T) {
		p := testProblem()
		p.Requests = append(p.Requests, Request{ID: "rx", Chain: []VNFID{"ghost"}, Rate: 1, DeliveryProb: 1})
		checkErr(t, p.Validate(), "undefined vnf")
	})
}

func TestProblemLookups(t *testing.T) {
	p := testProblem()
	if f, ok := p.VNF("nat"); !ok || f.Demand != 30 {
		t.Errorf("VNF(nat) = %+v, %v", f, ok)
	}
	if _, ok := p.VNF("ghost"); ok {
		t.Error("VNF(ghost) found")
	}
	if n, ok := p.Node("n2"); !ok || n.Capacity != 50 {
		t.Errorf("Node(n2) = %+v, %v", n, ok)
	}
	if _, ok := p.Node("nX"); ok {
		t.Error("Node(nX) found")
	}
}

func TestProblemTotals(t *testing.T) {
	p := testProblem()
	wantDemand := 2*10.0 + 1*30.0 + 3*5.0
	if got := p.TotalDemand(); got != wantDemand {
		t.Errorf("TotalDemand() = %v, want %v", got, wantDemand)
	}
	if got := p.TotalCapacity(); got != 350 {
		t.Errorf("TotalCapacity() = %v, want 350", got)
	}
}

func TestSortedVNFsByDemand(t *testing.T) {
	p := testProblem()
	got := p.SortedVNFsByDemand()
	// Total demands: fw=20, nat=30, ids=15 → nat, fw, ids.
	wantOrder := []VNFID{"nat", "fw", "ids"}
	for i, f := range got {
		if f.ID != wantOrder[i] {
			t.Fatalf("SortedVNFsByDemand()[%d] = %s, want %s", i, f.ID, wantOrder[i])
		}
	}
	// Original slice untouched.
	if p.VNFs[0].ID != "fw" {
		t.Error("SortedVNFsByDemand mutated the problem")
	}
}

func TestSortedVNFsByDemandTieBreak(t *testing.T) {
	p := &Problem{
		Nodes: []Node{{ID: "n", Capacity: 10}},
		VNFs: []VNF{
			{ID: "b", Instances: 1, Demand: 5, ServiceRate: 1},
			{ID: "a", Instances: 1, Demand: 5, ServiceRate: 1},
		},
	}
	got := p.SortedVNFsByDemand()
	if got[0].ID != "a" || got[1].ID != "b" {
		t.Errorf("tie-break not by id: %v, %v", got[0].ID, got[1].ID)
	}
}

func TestProblemClone(t *testing.T) {
	p := testProblem()
	q := p.Clone()
	q.Requests[0].Chain[0] = "mutated"
	q.Nodes[0].Capacity = 1
	if p.Requests[0].Chain[0] == "mutated" {
		t.Error("Clone shares chain slices")
	}
	if p.Nodes[0].Capacity == 1 {
		t.Error("Clone shares node slice")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	p := testProblem()
	var buf strings.Builder
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	q, err := ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatalf("ReadJSON: %v", err)
	}
	if len(q.Nodes) != len(p.Nodes) || len(q.VNFs) != len(p.VNFs) || len(q.Requests) != len(p.Requests) {
		t.Errorf("round trip lost elements: %+v", q)
	}
	if q.Requests[2].DeliveryProb != 0.5 {
		t.Errorf("round trip lost DeliveryProb: %v", q.Requests[2].DeliveryProb)
	}
}

func TestReadJSONRejectsInvalid(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"nodes":[],"vnfs":[],"requests":[]}`)); err == nil {
		t.Error("ReadJSON accepted empty problem")
	}
	if _, err := ReadJSON(strings.NewReader(`{"bogus":1}`)); err == nil {
		t.Error("ReadJSON accepted unknown fields")
	}
	if _, err := ReadJSON(strings.NewReader(`not json`)); err == nil {
		t.Error("ReadJSON accepted garbage")
	}
}

func checkErr(t *testing.T, err error, want string) {
	t.Helper()
	if want == "" {
		if err != nil {
			t.Errorf("unexpected error: %v", err)
		}
		return
	}
	if err == nil {
		t.Errorf("expected error containing %q, got nil", want)
		return
	}
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not contain %q", err, want)
	}
}

func TestMaxChainLengthConstant(t *testing.T) {
	if MaxChainLength != 6 {
		t.Errorf("MaxChainLength = %d, want 6 (paper Sec. V-A)", MaxChainLength)
	}
}

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestJSONRoundTripWithExtras(t *testing.T) {
	p := testProblem()
	for i := range p.Nodes {
		p.Nodes[i].Extras = []float64{64, 10}
	}
	for i := range p.VNFs {
		p.VNFs[i].Extras = []float64{2, 0.5}
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := ReadJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if q.ExtraResources() != 2 {
		t.Errorf("ExtraResources after round trip = %d", q.ExtraResources())
	}
	if q.VNFs[0].Extras[1] != 0.5 {
		t.Errorf("vnf extras lost: %v", q.VNFs[0].Extras)
	}
}

func TestProblemCloneDeepCopiesExtras(t *testing.T) {
	p := testProblem()
	p.Nodes[0].Extras = []float64{64}
	p.VNFs[0].Extras = []float64{2}
	for i := range p.Nodes[1:] {
		p.Nodes[i+1].Extras = []float64{64}
	}
	for i := range p.VNFs[1:] {
		p.VNFs[i+1].Extras = []float64{2}
	}
	q := p.Clone()
	q.Nodes[0].Extras[0] = 1
	q.VNFs[0].Extras[0] = 1
	if p.Nodes[0].Extras[0] == 1 || p.VNFs[0].Extras[0] == 1 {
		t.Error("Clone shares extras slices")
	}
}
