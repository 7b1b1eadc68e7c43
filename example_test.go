package nfvchain_test

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"

	nfvchain "nfvchain"
)

// Example runs the full joint-optimization pipeline on a tiny deterministic
// deployment: three VNFs chained two ways across two servers.
func Example() {
	problem := &nfvchain.Problem{
		Nodes: []nfvchain.Node{
			{ID: "server1", Capacity: 100},
			{ID: "server2", Capacity: 100},
		},
		VNFs: []nfvchain.VNF{
			{ID: "Firewall", Instances: 2, Demand: 20, ServiceRate: 100},
			{ID: "NAT", Instances: 1, Demand: 30, ServiceRate: 150},
			{ID: "IDS", Instances: 1, Demand: 50, ServiceRate: 120},
		},
		Requests: []nfvchain.Request{
			{ID: "web", Chain: []nfvchain.VNFID{"Firewall", "NAT"}, Rate: 40, DeliveryProb: 1},
			{ID: "scan", Chain: []nfvchain.VNFID{"Firewall", "IDS"}, Rate: 30, DeliveryProb: 1},
		},
	}

	sol, err := nfvchain.Optimize(problem, nfvchain.Options{Seed: 7})
	if err != nil {
		fmt.Println("optimize:", err)
		return
	}
	eval, err := nfvchain.Evaluate(sol)
	if err != nil {
		fmt.Println("evaluate:", err)
		return
	}

	fmt.Printf("nodes in service: %d\n", eval.NodesInService)
	fmt.Printf("requests rejected: %d\n", len(sol.Rejected))
	fmt.Printf("latency positive: %v\n", eval.MeanRequestLatency() > 0)
	// Output:
	// nodes in service: 2
	// requests rejected: 0
	// latency positive: true
}

// ExampleAnalyzeTrace shows trace synthesis plus Poisson verification.
func ExampleAnalyzeTrace() {
	cfg := nfvchain.DefaultWorkloadConfig()
	cfg.NumRequests = 1
	cfg.RateMin, cfg.RateMax = 50, 50 // one 50 pps flow
	problem, err := nfvchain.GenerateWorkload(cfg)
	if err != nil {
		fmt.Println("generate:", err)
		return
	}
	trace, err := nfvchain.GenerateTrace(problem, 60, 1)
	if err != nil {
		fmt.Println("trace:", err)
		return
	}
	for _, st := range nfvchain.AnalyzeTrace(trace) {
		fmt.Printf("rate≈50: %v, poisson: %v\n", st.Rate > 45 && st.Rate < 55, st.PoissonLike)
	}
	// Output:
	// rate≈50: true, poisson: true
}

// ExampleSolution_WriteJSON round-trips a solution through its JSON form.
func ExampleSolution_WriteJSON() {
	cfg := nfvchain.DefaultWorkloadConfig()
	cfg.NumRequests = 10
	problem, _ := nfvchain.GenerateWorkload(cfg)
	sol, err := nfvchain.Optimize(problem, nfvchain.Options{Seed: 3})
	if err != nil {
		fmt.Println("optimize:", err)
		return
	}
	var buf strings.Builder
	if err := sol.WriteJSON(&buf); err != nil {
		fmt.Println("write:", err)
		return
	}
	back, err := nfvchain.ReadSolutionJSON(strings.NewReader(buf.String()))
	if err != nil {
		fmt.Println("read:", err)
		return
	}
	fmt.Println("round trip ok:", back.Placement.NodesInService() == sol.Placement.NodesInService())
	// Output:
	// round trip ok: true
}

// ExampleSimulateContext cancels a simulation through its context: the
// event loop notices at its first poll and returns the context's error.
func ExampleSimulateContext() {
	cfg := nfvchain.DefaultWorkloadConfig()
	cfg.NumRequests = 20
	problem, _ := nfvchain.GenerateWorkload(cfg)
	sol, err := nfvchain.Optimize(problem, nfvchain.Options{Seed: 1})
	if err != nil {
		fmt.Println("optimize:", err)
		return
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: the run stops at the first poll
	// Tens of thousands of events over 5 s of traffic, well past one poll.
	_, err = nfvchain.SimulateContext(ctx, sol, nfvchain.SimulationConfig{Horizon: 5, Seed: 1})
	fmt.Println("cancelled:", errors.Is(err, context.Canceled))
	// Output:
	// cancelled: true
}

// ExampleNewMergedStream merges the per-request sources of a heavy-traffic
// client mix into one time-ordered stream and analyzes its arrivals.
func ExampleNewMergedStream() {
	cfg := nfvchain.DefaultWorkloadConfig()
	cfg.NumRequests = 12
	problem, _ := nfvchain.GenerateWorkload(cfg)
	mix, err := nfvchain.BuildClassSources(problem, nfvchain.DefaultClientClasses(), 5)
	if err != nil {
		fmt.Println("classes:", err)
		return
	}
	stream := nfvchain.NewMergedStream(mix.Sources)
	// Generator sources never end: the horizon bounds the pull.
	stats, err := nfvchain.AnalyzeArrivals(stream, 30)
	if err != nil {
		fmt.Println("analyze:", err)
		return
	}
	active := 0
	for _, st := range stats {
		if st.Count > 0 && st.Rate > 0 {
			active++
		}
	}
	fmt.Printf("requests with arrivals: %d of %d\n", active, len(problem.Requests))
	// Output:
	// requests with arrivals: 12 of 12
}

// ExamplePlacementLowerBound checks a solved placement against the
// provable lower bound on nodes in service.
func ExamplePlacementLowerBound() {
	cfg := nfvchain.DefaultWorkloadConfig()
	cfg.NumRequests = 60
	problem, _ := nfvchain.GenerateWorkload(cfg)
	sol, err := nfvchain.Optimize(problem, nfvchain.Options{Seed: 2})
	if err != nil {
		fmt.Println("optimize:", err)
		return
	}
	lb := nfvchain.PlacementLowerBound(problem)
	fmt.Println("bound positive:", lb >= 1)
	fmt.Println("bound ≤ nodes in service:", lb <= sol.Placement.NodesInService())
	// Output:
	// bound positive: true
	// bound ≤ nodes in service: true
}

// ExampleNewTopologyAwarePlacer places chains with TA-BFDSU on the hosts of
// a k=4 fat-tree, whose vertex ids name the problem's nodes.
func ExampleNewTopologyAwarePlacer() {
	topo, err := nfvchain.NewFatTree(4)
	if err != nil {
		fmt.Println("topology:", err)
		return
	}
	cfg := nfvchain.DefaultWorkloadConfig()
	cfg.NumRequests = 50
	problem, _ := nfvchain.GenerateWorkload(cfg)
	problem.Nodes = topo.ComputeNodes(func(int, string) float64 { return 4000 })
	placer := nfvchain.NewTopologyAwarePlacer(topo, 1)
	sol, err := nfvchain.Optimize(problem, nfvchain.Options{Placer: placer})
	if err != nil {
		fmt.Println("optimize:", err)
		return
	}
	fmt.Println("placer:", placer.Name())
	fmt.Println("hosts:", len(problem.Nodes))
	fmt.Println("placement valid:", sol.Placement.Validate(problem) == nil)
	// Output:
	// placer: TA-BFDSU
	// hosts: 16
	// placement valid: true
}

// ExampleRunExperiment regenerates one paper figure at a tiny averaging
// depth; DefaultExperimentConfig is the paper's full protocol.
func ExampleRunExperiment() {
	fmt.Println("fig12 available:", slices.Contains(nfvchain.ExperimentIDs(), "fig12"))
	fmt.Println("paper protocol trials:", nfvchain.DefaultExperimentConfig().SchedulingTrials)
	cfg := nfvchain.FastExperimentConfig()
	cfg.PlacementTrials, cfg.SchedulingTrials = 2, 10
	table, err := nfvchain.RunExperiment("fig12", cfg)
	if err != nil {
		fmt.Println("experiment:", err)
		return
	}
	fmt.Println("table:", table.ID, len(table.Series) > 0)
	// Output:
	// fig12 available: true
	// paper protocol trials: 1000
	// table: fig12 true
}

// ExampleReadResultsJSON round-trips simulation results through the JSON
// form nfvsim -json and the nfvd daemon emit.
func ExampleReadResultsJSON() {
	cfg := nfvchain.DefaultWorkloadConfig()
	cfg.NumRequests = 10
	problem, _ := nfvchain.GenerateWorkload(cfg)
	sol, err := nfvchain.Optimize(problem, nfvchain.Options{Seed: 4})
	if err != nil {
		fmt.Println("optimize:", err)
		return
	}
	res, err := nfvchain.Simulate(sol, nfvchain.SimulationConfig{Horizon: 1, Seed: 4})
	if err != nil {
		fmt.Println("simulate:", err)
		return
	}
	var buf strings.Builder
	if err := res.WriteJSON(&buf); err != nil {
		fmt.Println("write:", err)
		return
	}
	back, err := nfvchain.ReadResultsJSON(strings.NewReader(buf.String()))
	if err != nil {
		fmt.Println("read:", err)
		return
	}
	fmt.Println("round trip ok:", back.Delivered == res.Delivered && back.Generated == res.Generated)
	// Output:
	// round trip ok: true
}
