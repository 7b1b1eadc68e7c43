package core

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"nfvchain/internal/model"
	"nfvchain/internal/placement"
	"nfvchain/internal/queueing"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/simulate"
	"nfvchain/internal/workload"
)

func genProblem(t *testing.T, seed uint64) *model.Problem {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	cfg.NumRequests = 100
	p, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestOptimizeDefaultPipeline(t *testing.T) {
	p := genProblem(t, 1)
	sol, err := Optimize(p, Options{Seed: 1, LinkDelay: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := sol.Placement.Validate(p); err != nil {
		t.Fatalf("placement invalid: %v", err)
	}
	if err := sol.Schedule.ValidatePartial(p); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	if sol.PlacementIterations < 1 {
		t.Error("missing iteration count")
	}
	if sol.LinkDelay != 0.5 {
		t.Error("link delay not propagated")
	}
	// Workload generator guarantees headroom, so a balanced RCKK schedule
	// should admit everything.
	if sol.RejectionRate != 0 {
		t.Errorf("unexpected rejections: %v", sol.Rejected)
	}
}

func TestOptimizeRejectsInvalidProblem(t *testing.T) {
	if _, err := Optimize(&model.Problem{}, Options{}); err == nil {
		t.Error("invalid problem accepted")
	}
}

func TestOptimizePropagatesPlacementFailure(t *testing.T) {
	p := genProblem(t, 2)
	// Shrink every node so nothing fits.
	for i := range p.Nodes {
		p.Nodes[i].Capacity = 1
	}
	_, err := Optimize(p, Options{})
	if !errors.Is(err, placement.ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestOptimizeCustomAlgorithms(t *testing.T) {
	p := genProblem(t, 3)
	sol, err := Optimize(p, Options{Placer: placement.FFD{}, Scheduler: scheduling.CGA{}})
	if err != nil {
		t.Fatal(err)
	}
	if sol.PlacementIterations != 1 {
		t.Errorf("FFD iterations = %d, want 1", sol.PlacementIterations)
	}
}

func TestEvaluateObjectives(t *testing.T) {
	p := genProblem(t, 4)
	sol, err := Optimize(p, Options{Seed: 4, LinkDelay: 1})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(sol)
	if err != nil {
		t.Fatal(err)
	}
	if ev.AvgUtilization <= 0 || ev.AvgUtilization > 1 {
		t.Errorf("AvgUtilization = %v outside (0,1]", ev.AvgUtilization)
	}
	if ev.NodesInService < 1 || ev.NodesInService > len(p.Nodes) {
		t.Errorf("NodesInService = %d", ev.NodesInService)
	}
	if ev.ResourceOccupation <= 0 {
		t.Errorf("ResourceOccupation = %v", ev.ResourceOccupation)
	}
	if ev.AvgResponseTime <= 0 {
		t.Errorf("AvgResponseTime = %v", ev.AvgResponseTime)
	}
	if ev.TotalLatency <= 0 {
		t.Errorf("TotalLatency = %v", ev.TotalLatency)
	}
	if got := len(ev.PerRequestLatency); got != len(p.Requests)-len(sol.Rejected) {
		t.Errorf("PerRequestLatency entries = %d", got)
	}
	if mean := ev.MeanRequestLatency(); math.Abs(mean*float64(len(ev.PerRequestLatency))-ev.TotalLatency) > 1e-9 {
		t.Errorf("MeanRequestLatency inconsistent: %v", mean)
	}
	// All instances reported, sorted.
	var total int
	for _, f := range p.VNFs {
		total += f.Instances
	}
	if len(ev.Instances) != total {
		t.Errorf("Instances = %d, want %d", len(ev.Instances), total)
	}
}

func TestEvaluateMatchesEq12UnderUniformP(t *testing.T) {
	// Single VNF, two instances, uniform P: W(f,k) must equal Eq. 12's
	// closed form 1/(Pµ − Σλ).
	p := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 100}},
		VNFs:  []model.VNF{{ID: "f", Instances: 2, Demand: 1, ServiceRate: 100}},
		Requests: []model.Request{
			{ID: "r1", Chain: []model.VNFID{"f"}, Rate: 30, DeliveryProb: 0.98},
			{ID: "r2", Chain: []model.VNFID{"f"}, Rate: 40, DeliveryProb: 0.98},
		},
	}
	sol, err := Optimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(sol)
	if err != nil {
		t.Fatal(err)
	}
	for _, ie := range ev.Instances {
		if ie.RawArrival == 0 {
			continue
		}
		want, err := queueing.InstanceResponseTime(100, 0.98, []float64{ie.RawArrival})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(ie.ResponseTime-want) > 1e-9 {
			t.Errorf("instance %d: W = %v, want Eq.12 %v", ie.Instance, ie.ResponseTime, want)
		}
	}
}

// TestEvaluateInstanceArrivals checks Λ and Σλ per instance on a hand-built
// solution in which one request was rejected: Arrival inflates each rate by
// 1/P_r (Eq. 7), RawArrival does not, and the rejected request counts in
// neither. Arrival must also match Schedule.InstanceLoads bit for bit, since
// both sum R_f in request order.
func TestEvaluateInstanceArrivals(t *testing.T) {
	p := &model.Problem{
		Nodes: []model.Node{{ID: "n1", Capacity: 100}},
		VNFs: []model.VNF{
			{ID: "fw", Instances: 2, Demand: 10, ServiceRate: 100},
			{ID: "nat", Instances: 1, Demand: 30, ServiceRate: 150},
			{ID: "ids", Instances: 3, Demand: 5, ServiceRate: 80},
		},
		Requests: []model.Request{
			{ID: "r1", Chain: []model.VNFID{"fw", "nat"}, Rate: 10, DeliveryProb: 1},
			{ID: "r2", Chain: []model.VNFID{"fw"}, Rate: 20, DeliveryProb: 0.98},
			{ID: "r3", Chain: []model.VNFID{"ids", "fw", "nat"}, Rate: 5, DeliveryProb: 0.5},
			{ID: "r4", Chain: []model.VNFID{"fw"}, Rate: 7, DeliveryProb: 1},
		},
	}
	pl := model.NewPlacement()
	for _, f := range p.VNFs {
		pl.Assign(f.ID, "n1")
	}
	s := model.NewSchedule()
	s.Assign("r1", "fw", 0)
	s.Assign("r1", "nat", 0)
	s.Assign("r2", "fw", 1)
	s.Assign("r3", "ids", 2)
	s.Assign("r3", "fw", 0)
	s.Assign("r3", "nat", 0) // r4 was rejected
	ev, err := Evaluate(&Solution{Problem: p, Placement: pl, Schedule: s})
	if err != nil {
		t.Fatal(err)
	}
	want := map[simulate.InstanceKey][2]float64{ // Λ, Σλ
		{VNF: "fw", Instance: 0}:  {10 + 5/0.5, 15},
		{VNF: "fw", Instance: 1}:  {20 / 0.98, 20},
		{VNF: "nat", Instance: 0}: {10 + 5/0.5, 15},
		{VNF: "ids", Instance: 2}: {5 / 0.5, 5},
	}
	for _, ie := range ev.Instances {
		w := want[simulate.InstanceKey{VNF: ie.VNF, Instance: ie.Instance}]
		if math.Abs(ie.Arrival-w[0]) > 1e-9 || math.Abs(ie.RawArrival-w[1]) > 1e-9 {
			t.Errorf("%s/%d: Λ=%v Σλ=%v, want %v %v", ie.VNF, ie.Instance, ie.Arrival, ie.RawArrival, w[0], w[1])
		}
		if loads := s.InstanceLoads(p, ie.VNF); math.Float64bits(loads[ie.Instance]) != math.Float64bits(ie.Arrival) {
			t.Errorf("%s/%d: Λ=%v, InstanceLoads %v", ie.VNF, ie.Instance, ie.Arrival, loads[ie.Instance])
		}
	}
	if _, ok := ev.PerRequestLatency["r4"]; ok || len(ev.PerRequestLatency) != 3 {
		t.Errorf("PerRequestLatency = %v, want r1..r3 only", ev.PerRequestLatency)
	}
}

func TestEvaluateUnstableWithoutAdmission(t *testing.T) {
	p := &model.Problem{
		Nodes:    []model.Node{{ID: "n", Capacity: 100}},
		VNFs:     []model.VNF{{ID: "f", Instances: 1, Demand: 1, ServiceRate: 50}},
		Requests: []model.Request{{ID: "r", Chain: []model.VNFID{"f"}, Rate: 60, DeliveryProb: 1}},
	}
	sol, err := Optimize(p, Options{DisableAdmissionControl: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Evaluate(sol); !errors.Is(err, queueing.ErrUnstable) {
		t.Errorf("err = %v, want ErrUnstable", err)
	}
	// With admission control the overload is rejected and evaluation works.
	sol2, err := Optimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sol2.Rejected) != 1 {
		t.Fatalf("Rejected = %v", sol2.Rejected)
	}
	if _, err := Evaluate(sol2); err != nil {
		t.Errorf("Evaluate after admission: %v", err)
	}
}

func TestEvaluateLinkLatencyTerm(t *testing.T) {
	// Two VNFs forced onto different nodes: Eq. 16 adds (span−1)·L.
	p := &model.Problem{
		Nodes: []model.Node{
			{ID: "n1", Capacity: 10},
			{ID: "n2", Capacity: 10},
		},
		VNFs: []model.VNF{
			{ID: "f1", Instances: 1, Demand: 10, ServiceRate: 100},
			{ID: "f2", Instances: 1, Demand: 10, ServiceRate: 100},
		},
		Requests: []model.Request{
			{ID: "r", Chain: []model.VNFID{"f1", "f2"}, Rate: 10, DeliveryProb: 1},
		},
	}
	const linkDelay = 2.0
	sol, err := Optimize(p, Options{LinkDelay: linkDelay})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(sol)
	if err != nil {
		t.Fatal(err)
	}
	wantChain := 2.0 / (100 - 10) // two stages, W = 1/(µ−λ) each
	want := wantChain + linkDelay
	if math.Abs(ev.TotalLatency-want) > 1e-9 {
		t.Errorf("TotalLatency = %v, want %v (chain + L)", ev.TotalLatency, want)
	}
}

func TestSimulateBridge(t *testing.T) {
	p := genProblem(t, 6)
	sol, err := Optimize(p, Options{Seed: 6, LinkDelay: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(sol, SimulationConfig{Horizon: 20, Warmup: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Error("simulation delivered nothing")
	}
}

func TestAnalyticVsSimulatedLatencyAgree(t *testing.T) {
	// End-to-end validation of the open-Jackson model: the analytic mean
	// request latency (Eq. 16 with L=0) must match the simulator within a
	// loose tolerance on a well-provisioned instance.
	p := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 1000}},
		VNFs: []model.VNF{
			{ID: "f1", Instances: 2, Demand: 1, ServiceRate: 120},
			{ID: "f2", Instances: 1, Demand: 1, ServiceRate: 200},
		},
		Requests: []model.Request{
			{ID: "r1", Chain: []model.VNFID{"f1", "f2"}, Rate: 40, DeliveryProb: 0.98},
			{ID: "r2", Chain: []model.VNFID{"f1"}, Rate: 50, DeliveryProb: 0.98},
			{ID: "r3", Chain: []model.VNFID{"f2"}, Rate: 30, DeliveryProb: 0.98},
		},
	}
	sol, err := Optimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(sol)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(sol, SimulationConfig{Horizon: 3000, Warmup: 200, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	// Compare per-request: analytic Eq. 16 term vs simulated mean sojourn.
	for rid, analytic := range ev.PerRequestLatency {
		sim := res.PerRequest[rid].Mean()
		if math.Abs(sim-analytic)/analytic > 0.15 {
			t.Errorf("request %s: simulated %v vs analytic %v", rid, sim, analytic)
		}
	}
}

func TestOptimizePropertyAcrossConfigs(t *testing.T) {
	// Any feasible generated workload must yield a valid, evaluable
	// solution: placement feasible, schedule complete modulo rejections,
	// every loaded instance stable after admission control.
	f := func(seed uint64, vnfs8, reqs8, nodes8 uint8) bool {
		cfg := workload.DefaultConfig()
		cfg.Seed = seed
		cfg.NumVNFs = 6 + int(vnfs8%25)   // 6..30
		cfg.NumRequests = 10 + int(reqs8) // 10..265
		cfg.NumNodes = 4 + int(nodes8%17) // 4..20
		if cfg.MaxChainLength > cfg.NumVNFs {
			cfg.MaxChainLength = cfg.NumVNFs
		}
		p, err := workload.Generate(cfg)
		if err != nil {
			return false
		}
		sol, err := Optimize(p, Options{Seed: seed, LinkDelay: 0.001})
		if err != nil {
			return false
		}
		if sol.Placement.Validate(p) != nil || sol.Schedule.ValidatePartial(p) != nil {
			return false
		}
		ev, err := Evaluate(sol)
		if err != nil {
			return false
		}
		for _, ie := range ev.Instances {
			if ie.RawArrival > 0 && ie.Utilization >= 1 {
				return false
			}
		}
		return ev.TotalLatency >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestEvaluateRejectsForeignSchedule(t *testing.T) {
	p := genProblem(t, 8)
	sol, err := Optimize(p, Options{Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sol.Schedule.Assign("ghost", "nope", 0)
	if _, err := Evaluate(sol); err == nil || !strings.Contains(err.Error(), "unknown request") {
		t.Errorf("err = %v", err)
	}
}

func TestPerInstanceLatencyMatchesEq11(t *testing.T) {
	// The simulator's measured per-visit sojourn at every instance must
	// match the analytic W(f,k) of Eq. 11 — the per-instance granularity of
	// the model validation.
	p := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 1000}},
		VNFs: []model.VNF{
			{ID: "f1", Instances: 2, Demand: 1, ServiceRate: 130},
			{ID: "f2", Instances: 1, Demand: 1, ServiceRate: 220},
		},
		Requests: []model.Request{
			{ID: "r1", Chain: []model.VNFID{"f1", "f2"}, Rate: 45, DeliveryProb: 0.98},
			{ID: "r2", Chain: []model.VNFID{"f1"}, Rate: 55, DeliveryProb: 0.98},
			{ID: "r3", Chain: []model.VNFID{"f2"}, Rate: 35, DeliveryProb: 0.98},
		},
	}
	sol, err := Optimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(sol)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(sol, SimulationConfig{Horizon: 3000, Warmup: 200, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	for _, ie := range ev.Instances {
		if ie.RawArrival == 0 {
			continue
		}
		key := simulate.InstanceKey{VNF: ie.VNF, Instance: ie.Instance}
		sum, ok := res.PerInstance[key]
		if !ok || sum.N() == 0 {
			t.Fatalf("no per-instance samples for %v", key)
		}
		got := sum.Mean()
		if math.Abs(got-ie.ResponseTime)/ie.ResponseTime > 0.08 {
			t.Errorf("%s/%d: simulated W %v vs Eq. 11 %v", ie.VNF, ie.Instance, got, ie.ResponseTime)
		}
	}
}
