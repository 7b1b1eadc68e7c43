// Package benchsuite is the repository's one list of micro-benchmark
// scenarios. Each fixture and scenario body is defined here once, and two
// drivers run the same list: BenchmarkScenarios (`go test -bench` in this
// package) and cmd/nfvbench, which records results/BENCH.json and gates
// against it.
//
// The scenarios cover the hot paths of the pipeline: the discrete-event
// simulator (small and large horizons, streaming and bursty arrivals,
// drop-retransmit loss feedback, failure and preemption churn under the
// self-healing control plane, the multi-datacenter cluster drivers), BFDSU
// and its baselines, the KK-family partitioners at growing request counts,
// admission control, the Jackson solve, the local-search improvers,
// core.Optimize end to end, the anytime solver race, and the Solution,
// Results and simulate-request codecs nfvd runs on every job.
package benchsuite

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"testing"

	"nfvchain/internal/cluster"
	"nfvchain/internal/control"
	"nfvchain/internal/core"
	"nfvchain/internal/model"
	"nfvchain/internal/placement"
	"nfvchain/internal/portfolio"
	"nfvchain/internal/queueing"
	"nfvchain/internal/rng"
	"nfvchain/internal/routing"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/service"
	"nfvchain/internal/simulate"
	"nfvchain/internal/topology"
	"nfvchain/internal/wirejson"
	"nfvchain/internal/workload"
)

// Scenario is one named benchmark. Run builds its fixture, resets the timer
// and runs b.N iterations; the driver turns on allocation reporting.
type Scenario struct {
	Name string
	Run  func(*testing.B)
}

// Scenarios returns the fixed suite. Names are stable across changes:
// results/BENCH.json rows and the comparison gate key on them.
func Scenarios() []Scenario {
	out := []Scenario{
		{"Simulator/second", simulatorSecond},
		{"Simulator/large-horizon", simulatorLargeHorizon},
		{"Simulator/large-horizon-reuse", func(b *testing.B) { simulatorFleetReuse(b, 30) }},
		{"Simulator/deep-horizon", func(b *testing.B) { simulatorFleetReuse(b, 300) }},
		{"Simulator/paper-200", simulatorPaper200},
		{"Simulator/stream-replay", simulatorStreamReplay},
		{"Simulator/bursty-classes", simulatorBurstyClasses},
		{"Simulator/drop-retransmit", simulatorDropRetransmit},
		{"Simulator/failure-churn", simulatorFailureChurn},
		{"Simulator/preemption-churn", simulatorPreemptionChurn},
		{"Simulator/cluster", func(b *testing.B) { simulatorCluster(b, 300, 10, 0) }},
		{"Simulator/cluster-sequential", func(b *testing.B) { simulatorCluster(b, 4, 25, 0) }},
		{"Simulator/cluster-windowed", func(b *testing.B) { simulatorCluster(b, 4, 25, 1) }},
	}
	for _, n := range []int{250, 1000, 2000} {
		out = append(out, partition("RCKK", scheduling.RCKK{}, n, 5))
	}
	out = append(out,
		partition("KKForward", scheduling.KKForward{}, 250, 5),
		partition("CKK", scheduling.CKK{MaxNodes: 20_000}, 40, 4),
		Scenario{"Portfolio/anytime-race", portfolioAnytimeRace},
		Scenario{"Portfolio/race-paper", portfolioRacePaper},
		Scenario{"Portfolio/pso-paper", portfolioPSOPaper},
		Scenario{"Codec/solution-encode", codecSolutionEncode},
		Scenario{"Codec/solution-decode", codecSolutionDecode},
		Scenario{"Codec/results-encode", codecResultsEncode},
		Scenario{"Codec/results-decode", codecResultsDecode},
		Scenario{"Codec/simulate-request", codecSimulateRequest},
		place("BFDSU", func(s uint64) placement.Algorithm { return &placement.BFDSU{Seed: s} }),
		place("BFD", func(uint64) placement.Algorithm { return placement.BFD{} }),
		place("FFD", func(uint64) placement.Algorithm { return placement.FFD{} }),
		place("NAH", func(uint64) placement.Algorithm { return placement.NAH{} }),
		Scenario{"Place/BFDSU-fattree", func(b *testing.B) {
			_, p := fatTreeInstance(b)
			placeLoop(b, p, func(s uint64) placement.Algorithm { return &placement.BFDSU{Seed: s} })
		}},
		Scenario{"Place/TA-BFDSU-fattree", func(b *testing.B) {
			topo, p := fatTreeInstance(b)
			placeLoop(b, p, func(s uint64) placement.Algorithm { return &routing.TopologyAware{Topo: topo, Seed: s} })
		}},
		partition("RCKK", scheduling.RCKK{}, 50, 5),
	)
	for _, n := range []int{50, 250, 1000, 2000} {
		out = append(out, partition("CGA", scheduling.CGA{}, n, 5))
	}
	return append(out,
		Scenario{"Admission/n=500", admission},
		Scenario{"Model/compile-validate", compileValidate},
		Scenario{"Jackson/chain-6", jacksonSolve},
		Scenario{"Improve/placement", improvePlacement},
		Scenario{"Improve/schedule", improveSchedule},
		Scenario{"Optimize/end-to-end", optimizeEndToEnd},
		Scenario{"Evaluate/end-to-end", evaluateEndToEnd},
	)
}

// --- fixtures ---------------------------------------------------------------

// spreadSchedule serves request i at instance i mod Instances of every VNF
// on its chain: instance 0 throughout when each VNF has one instance.
func spreadSchedule(prob *model.Problem) *model.Schedule {
	sched := model.NewSchedule(model.Compile(prob))
	for i, r := range prob.Requests {
		for _, f := range prob.VNFs {
			sched.Assign(r.ID, f.ID, i%f.Instances)
		}
	}
	return sched
}

// threeStageFixture is one 200 pps request over a 3-stage chain.
func threeStageFixture() (*model.Problem, *model.Schedule) {
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 1000}},
		VNFs: []model.VNF{
			{ID: "f1", Instances: 1, Demand: 1, ServiceRate: 500},
			{ID: "f2", Instances: 1, Demand: 1, ServiceRate: 400},
			{ID: "f3", Instances: 1, Demand: 1, ServiceRate: 600},
		},
		Requests: []model.Request{
			{ID: "r", Chain: []model.VNFID{"f1", "f2", "f3"}, Rate: 200, DeliveryProb: 0.98},
		},
	}
	return prob, spreadSchedule(prob)
}

// fleetFixture is a 5-request, 4-VNF system: 1500 packet arrivals per
// simulated second across the fleet, sized so every instance stays stable
// (ρ ≈ 0.75 at the hottest one). An unstable fixture would benchmark
// unbounded queue growth, not the event-loop hot path.
func fleetFixture() (*model.Problem, *model.Schedule) {
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 10000}},
		VNFs: []model.VNF{
			{ID: "f1", Instances: 2, Demand: 1, ServiceRate: 1200},
			{ID: "f2", Instances: 2, Demand: 1, ServiceRate: 1200},
			{ID: "f3", Instances: 1, Demand: 1, ServiceRate: 2000},
			{ID: "f4", Instances: 1, Demand: 1, ServiceRate: 2000},
		},
	}
	for i := 0; i < 5; i++ {
		prob.Requests = append(prob.Requests, model.Request{
			ID:    model.RequestID(fmt.Sprintf("r%d", i)),
			Chain: []model.VNFID{"f1", "f2", "f3", "f4"}, Rate: 300, DeliveryProb: 0.98,
		})
	}
	return prob, spreadSchedule(prob)
}

// churnFixture spreads the fleet's chain over three nodes so a node failure
// takes out a whole VNF (the co-located worst case re-placement is built
// for), with headroom left for replacement instances.
func churnFixture() (*model.Problem, *model.Schedule, *model.Placement) {
	prob, sched := fleetFixture()
	prob.Nodes = []model.Node{
		{ID: "a", Capacity: 6}, {ID: "b", Capacity: 6}, {ID: "c", Capacity: 6},
	}
	pl := model.NewPlacement()
	pl.Assign("f1", "a")
	pl.Assign("f2", "b")
	pl.Assign("f3", "c")
	pl.Assign("f4", "c")
	return prob, sched, pl
}

// clusterFixture is a compact two-stage datacenter: one request generating
// local traffic plus one cluster-routed global flow sharing the same chain.
func clusterFixture() (*model.Problem, *model.Schedule) {
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 1000}},
		VNFs: []model.VNF{
			{ID: "f1", Instances: 1, Demand: 1, ServiceRate: 500},
			{ID: "f2", Instances: 1, Demand: 1, ServiceRate: 600},
		},
		Requests: []model.Request{
			{ID: "local", Chain: []model.VNFID{"f1", "f2"}, Rate: 150, DeliveryProb: 0.98},
			{ID: "global", Chain: []model.VNFID{"f1", "f2"}, Rate: 150, DeliveryProb: 0.98},
		},
	}
	return prob, spreadSchedule(prob)
}

// scaledInstance generates a §V-A workload and scales every VNF's demand so
// the total is 60% of the total node capacity.
func scaledInstance(b *testing.B, cfg workload.Config) *model.Problem {
	b.Helper()
	p, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	scale := 0.6 * p.TotalCapacity() / p.TotalDemand()
	for i := range p.VNFs {
		p.VNFs[i].Demand *= scale
	}
	return p
}

// placementInstance is the default workload at the given size.
func placementInstance(b *testing.B, vnfs, requests, nodes int) *model.Problem {
	cfg := workload.DefaultConfig()
	cfg.NumVNFs = vnfs
	cfg.NumRequests = requests
	cfg.NumNodes = nodes
	return scaledInstance(b, cfg)
}

// fatTreeInstance is a 200-request workload whose 16 nodes are the compute
// vertices of a k = 4 fat-tree.
func fatTreeInstance(b *testing.B) (*topology.Graph, *model.Problem) {
	topo, err := topology.FatTree(4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.NumNodes = 16
	cfg.NumRequests = 200
	p := scaledInstance(b, cfg)
	for i := range p.Nodes {
		p.Nodes[i].ID = model.NodeID(topo.ComputeVertices()[i])
	}
	return topo, p
}

// partitionItems is n requests with weights uniform on [1, 100), seed 7.
func partitionItems(n int) []scheduling.Item {
	s := rng.New(7)
	items := make([]scheduling.Item, n)
	for i := range items {
		items[i] = scheduling.Item{
			ID:     model.RequestID(fmt.Sprintf("r%04d", i)),
			Weight: s.Uniform(1, 100),
		}
	}
	return items
}

// solvedInstance runs the default pipeline on a scaled §V-A instance with
// the given request count, seed 21 and 1 ms links.
func solvedInstance(b *testing.B, requests int) *core.Solution {
	cfg := workload.DefaultConfig()
	cfg.Seed = 21
	cfg.NumRequests = requests
	sol, err := core.Optimize(scaledInstance(b, cfg), core.Options{Seed: 21, LinkDelay: 0.001})
	if err != nil {
		b.Fatal(err)
	}
	return sol
}

// --- simulator scenarios ----------------------------------------------------

// runEach runs one fresh simulation of cfg per iteration, seeded with the
// iteration index.
func runEach(b *testing.B, cfg simulate.Config) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i)
		if _, err := simulate.Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// reuseEach runs every iteration on one reused Simulator, after one
// unmeasured warm-up run. The first run grows the Simulator's arenas;
// folding that one-time growth into allocs/op would make the number depend
// on whatever iteration count the benchmark driver picked (flaky against
// the strict allocs gate). Warm first, then measure the steady state.
func reuseEach(b *testing.B, cfg func(seed uint64) simulate.Config) {
	sim := simulate.NewSimulator()
	iter := func(seed uint64) {
		if err := sim.Reset(cfg(seed)); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
	iter(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		iter(uint64(i))
	}
}

// simulatorSecond is one simulated second of the 3-stage chain.
func simulatorSecond(b *testing.B) {
	prob, sched := threeStageFixture()
	runEach(b, simulate.Config{Problem: prob, Schedule: sched, Horizon: 1})
}

// simulatorLargeHorizon runs the fleet for 30 simulated seconds, about 45k
// packets and 180k stage visits per iteration, building a new Simulator
// each time.
func simulatorLargeHorizon(b *testing.B) {
	prob, sched := fleetFixture()
	runEach(b, simulate.Config{Problem: prob, Schedule: sched, Horizon: 30, Warmup: 2})
}

// simulatorFleetReuse is the fleet through the Reset path: one Simulator
// serves every iteration. At a 30 s horizon the gap to
// Simulator/large-horizon is exactly the per-trial allocation cost sweeps
// save by reusing run state; at 300 s (about 4.5M events) it is the
// steady-state sweep cost of a deep run.
func simulatorFleetReuse(b *testing.B, horizon float64) {
	prob, sched := fleetFixture()
	reuseEach(b, func(seed uint64) simulate.Config {
		return simulate.Config{Problem: prob, Schedule: sched, Horizon: horizon, Warmup: 2, Seed: seed}
	})
}

// simulatorPaper200 is the perfbench simulate plain job in miniature: the
// §V-A instance at 200 requests, solved with 1 ms links, simulated for 4 s
// after a 0.5 s warm-up on one reused Simulator. It is the one row at paper
// scale: 200 sources pending at once and a link hop on most chains, where
// the fleet rows carry 5 requests and no link delay. Every iteration
// replays seed 1, the warm-up run's seed: a new seed can push a queue ring
// or the packet arena past its high-water mark, and those rare growths
// would make allocs/op depend on b.N.
func simulatorPaper200(b *testing.B) {
	sol := solvedInstance(b, 200)
	reuseEach(b, func(uint64) simulate.Config {
		return simulate.Config{
			Problem: sol.Problem, Schedule: sol.Schedule, Placement: sol.Placement,
			LinkDelay: sol.LinkDelay, Horizon: 4, Warmup: 0.5, Seed: 1,
		}
	})
}

// simulatorStreamReplay is the large-horizon fleet workload arriving through
// a caller's cursor: per-request Poisson sources superposed by a
// MergedStream feed Config.Arrivals one row at a time, with the
// ExpectedArrivals hint standing in for the exact trace length a CSV replay
// would have learned from its analysis pass. Against
// Simulator/large-horizon-reuse, which merges its Poisson default inside the
// simulation, it adds the per-row request-ID lookup of a caller's cursor.
func simulatorStreamReplay(b *testing.B) {
	prob, sched := fleetFixture()
	reuseEach(b, func(seed uint64) simulate.Config {
		srcs, err := workload.TraceSources(prob, workload.InterArrivalExponential, seed)
		if err != nil {
			b.Fatal(err)
		}
		return simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 30, Warmup: 2, Seed: seed,
			Arrivals:         workload.NewMergedStream(srcs),
			ExpectedArrivals: 45_000, // ~1500 pps × 30 s
		}
	})
}

// simulatorBurstyClasses drives the fleet with the heavy-traffic client-class
// mix (steady/diurnal/bursty) merged into Config.Arrivals — the generator
// tier's hot path: NHPP thinning and MMPP epoch-walking inside the event
// loop.
func simulatorBurstyClasses(b *testing.B) {
	prob, sched := fleetFixture()
	reuseEach(b, func(seed uint64) simulate.Config {
		cw, err := workload.BuildSources(prob, workload.DefaultClasses(), seed)
		if err != nil {
			b.Fatal(err)
		}
		return simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 30, Warmup: 2, Seed: seed,
			Arrivals: workload.NewMergedStream(cw.Sources),
		}
	})
}

// simulatorDropRetransmit measures the NACK loss-feedback path: a stable
// M/M/1/4 queue (ρ = 0.8) whose blocking losses are re-injected from the
// source. The system must stay stable — an overloaded queue with
// retransmission snowballs into an event storm, which is a workload property
// rather than a simulator hot path.
func simulatorDropRetransmit(b *testing.B) {
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 1000}},
		VNFs: []model.VNF{
			{ID: "f", Instances: 1, Demand: 1, ServiceRate: 100},
		},
		Requests: []model.Request{
			{ID: "r", Chain: []model.VNFID{"f"}, Rate: 80, DeliveryProb: 0.98},
		},
	}
	runEach(b, simulate.Config{
		Problem: prob, Schedule: spreadSchedule(prob), Horizon: 30, Warmup: 2,
		BufferSize: 3, DropPolicy: simulate.DropRetransmit, RetransmitDelay: 0.005,
	})
}

// simulatorFailureChurn: the fleet workload under sustained node churn (MTBF
// = horizon/3, so roughly three outages per run) with failed packets
// retransmitted and a controller at the repair rung (reschedule+replace)
// booting ClickOS replacements mid-run. Measures the full self-healing path:
// fault events, epoch-guarded completions, RCKK rebalancing and BFDSU
// re-placement.
func simulatorFailureChurn(b *testing.B) {
	prob, sched, pl := churnFixture()
	const horizon = 30.0
	ctrl, err := control.New(control.Config{
		Problem:   prob,
		Placement: pl,
		Schedule:  sched,
		Policy:    control.PolicyRepair,
		SetupCost: control.SetupCostClickOS,
	})
	if err != nil {
		b.Fatal(err)
	}
	plan := &simulate.FaultPlan{MTBF: horizon / 3, MTTR: 2}
	reuseEach(b, func(seed uint64) simulate.Config {
		ctrl.Reset(seed)
		return simulate.Config{
			Problem: prob, Schedule: sched, Placement: pl, LinkDelay: 0.001,
			Horizon: horizon, Warmup: 2, Seed: seed,
			FaultPlan:       plan,
			FailurePolicy:   simulate.FailRetransmit,
			RetransmitDelay: 0.01,
			Controller:      ctrl,
		}
	})
}

// simulatorPreemptionChurn: the churn fixture under correlated preemption —
// two-node groups lost together about four times per run, each announced
// 0.4 s ahead — managed by the autoscale+migrate control plane ticking every
// 0.5 s. Measures the full online-control path: preemption notices and
// ahead-of-loss evacuations, windowed utilization observation, autoscaling
// with ClickOS boot costs, live migration and deterministic admission
// shedding, all on top of the repair rung's fault handling.
func simulatorPreemptionChurn(b *testing.B) {
	prob, sched, pl := churnFixture()
	const horizon = 30.0
	ctrl, err := control.New(control.Config{
		Problem:       prob,
		Placement:     pl,
		Schedule:      sched,
		Policy:        control.PolicyAutoscaleMigrate,
		SetupCost:     control.SetupCostClickOS,
		MigrationCost: control.SetupCostClickOS,
	})
	if err != nil {
		b.Fatal(err)
	}
	plan := &simulate.FaultPlan{Preemption: &simulate.PreemptionPlan{
		MeanInterval: horizon / 4, GroupSize: 2, Recovery: 2, LeadTime: 0.4,
	}}
	reuseEach(b, func(seed uint64) simulate.Config {
		ctrl.Reset(seed)
		return simulate.Config{
			Problem: prob, Schedule: sched, Placement: pl, LinkDelay: 0.001,
			Horizon: horizon, Warmup: 2, Seed: seed,
			FaultPlan:       plan,
			FailurePolicy:   simulate.FailRetransmit,
			RetransmitDelay: 0.01,
			Controller:      ctrl,
			ControlInterval: 0.5,
		}
	})
}

// simulatorCluster composes 8 datacenter simulators of clusterFixture under
// one global clock, with the global flow least-loaded-routed across them
// behind a 5 ms WAN entry hop.
//
//   - Simulator/cluster: a 300/s global flow over a 10 s horizon with the
//     default driver. Exercises the stepping primitives (peek/process),
//     Inject and the routing hot path.
//   - Simulator/cluster-sequential and Simulator/cluster-windowed: the A/B
//     behind the Config.Workers driver selector. Sparse global traffic (4
//     arrivals/s against ~300 pps of local load per datacenter) over 25 s,
//     so each conservative window carries thousands of drainable events.
//     workers = 0 measures the event-interleaved sequential driver,
//     workers = 1 the windowed driver. Results are bit-identical; the two
//     differ only in driver overhead.
func simulatorCluster(b *testing.B, globalRate, horizon float64, workers int) {
	prob, sched := clusterFixture()
	const dcs = 8
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := cluster.Config{
			WANLatency: 0.005,
			Router:     cluster.LeastLoaded{},
			Global:     []cluster.GlobalRequest{{ID: "global", Rate: globalRate, Home: 0}},
			Seed:       uint64(i),
			Workers:    workers,
		}
		for d := 0; d < dcs; d++ {
			cfg.Datacenters = append(cfg.Datacenters, cluster.Datacenter{
				Name: fmt.Sprintf("dc%d", d),
				Sim: simulate.Config{
					Problem: prob, Schedule: sched, Horizon: horizon, Warmup: 1,
					Seed: uint64(i)*dcs + uint64(d),
				},
			})
		}
		c, err := cluster.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- placement and scheduling scenarios ------------------------------------

// place is the Place/<name> scenario: one placement per iteration, seeded
// with the iteration index, on the 15-VNF, 200-request, 10-node instance.
func place(name string, mk func(seed uint64) placement.Algorithm) Scenario {
	return Scenario{"Place/" + name, func(b *testing.B) {
		placeLoop(b, placementInstance(b, 15, 200, 10), mk)
	}}
}

func placeLoop(b *testing.B, p *model.Problem, mk func(seed uint64) placement.Algorithm) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mk(uint64(i)).Place(p); err != nil {
			b.Fatal(err)
		}
	}
}

// partition is the <name>/n=<n> scenario: alg partitions n seeded items
// onto m instances.
func partition(name string, alg scheduling.Partitioner, n, m int) Scenario {
	return Scenario{fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
		items := partitionItems(n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := alg.Partition(items, m); err != nil {
				b.Fatal(err)
			}
		}
	}}
}

// admission measures admission control over a CGA schedule of 500 requests.
func admission(b *testing.B) {
	p := placementInstance(b, 15, 500, 10)
	sched, err := scheduling.ScheduleAll(p, scheduling.CGA{ArrivalOrder: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheduling.ApplyAdmissionControl(p, sched); err != nil {
			b.Fatal(err)
		}
	}
}

// compileValidate validates and indexes a 1000-request, 15-VNF problem in
// one walk, as nfvd does once per served solve. The index goes to a
// package variable, so it is built on the heap as a caller keeps it.
func compileValidate(b *testing.B) {
	p := placementInstance(b, 15, 1000, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix, err := model.CompileValid(p)
		if err != nil {
			b.Fatal(err)
		}
		compiled = ix
	}
}

var compiled *model.Index

// jacksonSolve solves the open Jackson network of a 6-stage chain.
func jacksonSolve(b *testing.B) {
	n, err := queueing.ChainNetwork(2, 0.98, []float64{100, 120, 90, 150, 110, 95})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := n.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

// improvePlacement runs placement local search from a WFD start.
func improvePlacement(b *testing.B) {
	p := placementInstance(b, 15, 200, 10)
	res, err := (placement.WFD{}).Place(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := placement.Improve(p, res.Placement, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// improveSchedule runs schedule local search from a round-robin start.
func improveSchedule(b *testing.B) {
	items := partitionItems(250)
	assign, err := (scheduling.RoundRobin{}).Partition(items, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheduling.Improve(items, assign, 5, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// optimizeEndToEnd runs core.Optimize (BFDSU, RCKK and admission control).
// The seed is fixed: BFDSU's allocations vary by a few per seed, and their
// mean over seeds 0…b.N−1 sits so close to an integer that allocs/op would
// flip with the iteration count the driver picks.
func optimizeEndToEnd(b *testing.B) {
	p := placementInstance(b, 15, 200, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(p, core.Options{Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// evaluateEndToEnd runs core.Evaluate, the analytic Eq. 11/16 scoring, on
// the solution Optimize/end-to-end computes.
func evaluateEndToEnd(b *testing.B) {
	sol, err := core.Optimize(placementInstance(b, 15, 200, 10), core.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Evaluate(sol); err != nil {
			b.Fatal(err)
		}
	}
}

// portfolioAnytimeRace measures the full anytime-racing path (compile, the
// baseline + metaheuristic solvers at fixed iteration budgets, winner
// finalization with admission control) on a mid-size generated workload. One
// worker and a fixed seed make every iteration bit-identical, so allocs/op
// holds exactly under the strict comparison gate.
func portfolioAnytimeRace(b *testing.B) {
	cfg := workload.DefaultConfig()
	cfg.Seed = 7
	cfg.NumVNFs = 8
	cfg.NumRequests = 60
	cfg.NumNodes = 6
	prob := scaledInstance(b, cfg)
	lineup := []string{"greedy", "ffd", "sa:iters=1500;polish=500", "lns:iters=30", "pso:iters=10;particles=6"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SolveRace(context.Background(), prob, core.RaceOptions{
			Portfolio: lineup,
			Workers:   1,
			Seed:      7,
			LinkDelay: 0.001,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// portfolioRacePaper races the default portfolio at its default iteration
// budgets on the §V-A problem (15 VNFs, 200 requests, 10 nodes, load 0.6):
// the shape of every anytime POST /v1/solve that names the default
// portfolio. One worker keeps allocs/op exact.
func portfolioRacePaper(b *testing.B) {
	prob := placementInstance(b, 15, 200, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SolveRace(context.Background(), prob, core.RaceOptions{
			Portfolio: portfolio.DefaultPortfolio(),
			Workers:   1,
			Seed:      1,
			LinkDelay: 0.001,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// portfolioPSOPaper races PSO alone at its default budget on the
// Portfolio/race-paper problem: the particle swarm's own number, its
// decode, placement memo and placement-only scoring, inside the race.
func portfolioPSOPaper(b *testing.B) {
	prob := placementInstance(b, 15, 200, 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SolveRace(context.Background(), prob, core.RaceOptions{
			Portfolio: []string{"pso"},
			Workers:   1,
			Seed:      1,
			LinkDelay: 0.001,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- codec scenarios --------------------------------------------------------

// codecSolutionEncode measures Solution.WriteJSON, the indented document
// every solve job returns, for a 500-request solve.
func codecSolutionEncode(b *testing.B) {
	sol := solvedInstance(b, 500)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := sol.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// codecSolutionDecode measures core.ReadSolutionJSON, validation included,
// as a client decodes a served solve result.
func codecSolutionDecode(b *testing.B) {
	var buf bytes.Buffer
	if err := solvedInstance(b, 500).WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	doc := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ReadSolutionJSON(bytes.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
	}
}

// codecSimOptions are the options of a faulty simulate job as nfvd
// receives them: MTBF 3 s / MTTR 30 ms faults with retransmission, 4 s
// horizon, 0.5 s warmup.
func codecSimOptions() service.SimOptions {
	return service.SimOptions{
		Horizon:         4,
		Warmup:          0.5,
		BufferSize:      64,
		DropPolicy:      "retransmit",
		RetransmitDelay: 0.01,
		Seed:            21,
		FaultPlan:       &simulate.FaultPlan{MTBF: 3, MTTR: 0.03},
		FailurePolicy:   "retransmit",
	}
}

// codecResults simulates the 200-request solution a simulate job posts
// under codecSimOptions: the Results document (~1 MB) the job returns.
func codecResults(b *testing.B) *simulate.Results {
	o := codecSimOptions()
	res, err := core.Simulate(solvedInstance(b, 200), core.SimulationConfig{
		Horizon:         o.Horizon,
		Warmup:          o.Warmup,
		BufferSize:      o.BufferSize,
		DropPolicy:      simulate.DropRetransmit,
		RetransmitDelay: o.RetransmitDelay,
		Seed:            o.Seed,
		FaultPlan:       o.FaultPlan,
		FailurePolicy:   simulate.FailRetransmit,
	})
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// codecResultsEncode measures Results.WriteJSON, the indented document
// every simulate job returns.
func codecResultsEncode(b *testing.B) {
	res := codecResults(b)
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := res.WriteJSON(&buf); err != nil {
			b.Fatal(err)
		}
	}
}

// codecResultsDecode measures simulate.ReadResultsJSON, as a client
// decodes a served simulate result.
func codecResultsDecode(b *testing.B) {
	var buf bytes.Buffer
	if err := codecResults(b).WriteJSON(&buf); err != nil {
		b.Fatal(err)
	}
	doc := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.ReadResultsJSON(bytes.NewReader(doc)); err != nil {
			b.Fatal(err)
		}
	}
}

// codecSimulateRequest measures what nfvd does with a posted simulate body
// before the job runs, bar validating the solution: the strict envelope
// decode, then the result-cache key, a SHA-256 over the canonical compact
// re-encoding. The body carries an indented solution document, as a client
// posts one.
func codecSimulateRequest(b *testing.B) {
	var sol bytes.Buffer
	if err := solvedInstance(b, 200).WriteJSON(&sol); err != nil {
		b.Fatal(err)
	}
	body, err := json.Marshal(service.SimulateRequest{Solution: sol.Bytes(), Sim: codecSimOptions()})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var req service.SimulateRequest
		if err := wirejson.Unmarshal(body, req.DecodeWire); err != nil {
			b.Fatal(err)
		}
		canon, err := wirejson.Marshal(req.AppendWire)
		if err != nil {
			b.Fatal(err)
		}
		h := sha256.New()
		h.Write([]byte("simulate\x00"))
		h.Write(canon)
		h.Sum(nil)
	}
}
