package nfvchain

// Benchmark harness: one BenchmarkFigNN per evaluation figure of the paper
// (each iteration regenerates that figure's full sweep at reduced averaging
// — run `go run ./cmd/nfvsim -fig all` for the paper-protocol curves), plus
// micro-benchmarks of the core algorithms and ablation benches for the
// design choices DESIGN.md calls out (BFDSU's weighted randomization vs
// deterministic best fit; RCKK's reverse pairing vs forward combining).

import (
	"fmt"
	"runtime"
	"testing"

	"nfvchain/internal/cluster"
	"nfvchain/internal/dynamic"
	"nfvchain/internal/experiment"
	"nfvchain/internal/model"
	"nfvchain/internal/placement"
	"nfvchain/internal/queueing"
	"nfvchain/internal/rng"
	"nfvchain/internal/routing"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/simulate"
	"nfvchain/internal/topology"
	"nfvchain/internal/workload"
)

// benchConfig keeps per-iteration cost manageable; shapes (who wins, by
// what factor) are preserved, only curve smoothness is reduced.
func benchConfig() experiment.Config {
	return experiment.Config{Seed: 1, PlacementTrials: 3, SchedulingTrials: 20}
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := experiment.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Series) == 0 {
			b.Fatalf("%s produced no series", id)
		}
	}
}

// One benchmark per paper figure (Figs. 5–16 and the p99 tail statistics).

func BenchmarkFig05Utilization(b *testing.B)        { benchFigure(b, "fig5") }
func BenchmarkFig06UtilizationScale(b *testing.B)   { benchFigure(b, "fig6") }
func BenchmarkFig07UtilizationNodes(b *testing.B)   { benchFigure(b, "fig7") }
func BenchmarkFig08NodesInService(b *testing.B)     { benchFigure(b, "fig8") }
func BenchmarkFig09ResourceOccupation(b *testing.B) { benchFigure(b, "fig9") }
func BenchmarkFig10Iterations(b *testing.B)         { benchFigure(b, "fig10") }
func BenchmarkFig11ResponseP098(b *testing.B)       { benchFigure(b, "fig11") }
func BenchmarkFig12ResponseP100(b *testing.B)       { benchFigure(b, "fig12") }
func BenchmarkFig13ResponseInstances098(b *testing.B) {
	benchFigure(b, "fig13")
}
func BenchmarkFig14ResponseInstances100(b *testing.B) {
	benchFigure(b, "fig14")
}
func BenchmarkFig15RejectionLowLoss(b *testing.B)  { benchFigure(b, "fig15") }
func BenchmarkFig16RejectionHighLoss(b *testing.B) { benchFigure(b, "fig16") }
func BenchmarkFigTailP99(b *testing.B)             { benchFigure(b, "tail") }

// Extension experiments.

func BenchmarkFigAblationPlacement(b *testing.B)  { benchFigure(b, "ablation-placement") }
func BenchmarkFigAblationScheduling(b *testing.B) { benchFigure(b, "ablation-scheduling") }
func BenchmarkFigRobustness(b *testing.B)         { benchFigure(b, "robustness") }

// --- Placement micro-benchmarks --------------------------------------------

func placementInstance(b *testing.B, vnfs, requests, nodes int) *model.Problem {
	b.Helper()
	cfg := workload.DefaultConfig()
	cfg.NumVNFs = vnfs
	cfg.NumRequests = requests
	cfg.NumNodes = nodes
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

func benchPlacer(b *testing.B, mk func(seed uint64) placement.Algorithm) {
	p := placementInstance(b, 15, 200, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mk(uint64(i)).Place(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPlaceBFDSU(b *testing.B) {
	benchPlacer(b, func(s uint64) placement.Algorithm { return &placement.BFDSU{Seed: s} })
}

func BenchmarkPlaceFFD(b *testing.B) {
	benchPlacer(b, func(uint64) placement.Algorithm { return placement.FFD{} })
}

func BenchmarkPlaceNAH(b *testing.B) {
	benchPlacer(b, func(uint64) placement.Algorithm { return placement.NAH{} })
}

// BenchmarkAblationPlacementRandomization compares BFDSU against its
// derandomized core (deterministic BFD): the gap in ns/op is the cost of the
// weighted draws; DESIGN.md's ablation tests measure the quality side.
func BenchmarkAblationPlacementRandomization(b *testing.B) {
	p := placementInstance(b, 15, 200, 10)
	b.Run("BFDSU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (&placement.BFDSU{Seed: uint64(i)}).Place(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("BFD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (placement.BFD{}).Place(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Scheduling micro-benchmarks -------------------------------------------

func schedulingItems(n int, seed uint64) []scheduling.Item {
	s := rng.New(seed)
	items := make([]scheduling.Item, n)
	for i := range items {
		items[i] = scheduling.Item{
			ID:     model.RequestID(fmt.Sprintf("r%04d", i)),
			Weight: s.Uniform(1, 100),
		}
	}
	return items
}

func benchPartitioner(b *testing.B, alg scheduling.Partitioner) {
	for _, n := range []int{50, 250, 1000, 2000} {
		items := schedulingItems(n, 7)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := alg.Partition(items, 5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkScheduleRCKK(b *testing.B) { benchPartitioner(b, scheduling.RCKK{}) }
func BenchmarkScheduleCGA(b *testing.B)  { benchPartitioner(b, scheduling.CGA{}) }

// BenchmarkAblationReversePairing compares RCKK's reverse combination
// against the forward-combining variant at equal n.
func BenchmarkAblationReversePairing(b *testing.B) {
	items := schedulingItems(250, 7)
	b.Run("RCKK", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (scheduling.RCKK{}).Partition(items, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("KKForward", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (scheduling.KKForward{}).Partition(items, 5); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAdmissionControl(b *testing.B) {
	p := placementInstance(b, 15, 500, 10)
	sched, err := scheduling.ScheduleAll(p, scheduling.CGA{ArrivalOrder: true})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheduling.ApplyAdmissionControl(p, sched); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Queueing and simulation micro-benchmarks ------------------------------

func BenchmarkJacksonSolve(b *testing.B) {
	n, err := queueing.ChainNetwork(2, 0.98, []float64{100, 120, 90, 150, 110, 95})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := n.Solve(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimulatorSecond(b *testing.B) {
	// One simulated second of a 3-stage chain at 200 pps.
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
	sched := model.NewSchedule()
	for _, f := range prob.VNFs {
		sched.Assign("r", f.ID, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Run(simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 1, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// largeHorizonFixture is a 5-request, 4-VNF system for the long-horizon DES
// benchmarks: 1500 packet arrivals per simulated second across the fleet,
// sized so every instance stays stable (ρ ≈ 0.75 at the hottest one) —
// an unstable fixture would benchmark unbounded queue growth, not the
// event-loop hot path.
func largeHorizonFixture() (*model.Problem, *model.Schedule) {
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
	sched := model.NewSchedule()
	for i, r := range prob.Requests {
		for _, f := range prob.VNFs {
			sched.Assign(r.ID, f.ID, i%f.Instances)
		}
	}
	return prob, sched
}

// BenchmarkSimulatorLargeHorizon exercises the DES at scale: 30 simulated
// seconds × 2000 pps ≈ 60k packets (240k stage visits) per iteration. This
// is the trajectory benchmark for the event/packet pooling and ring-buffer
// work — allocs/op here is dominated by the per-event hot path.
func BenchmarkSimulatorLargeHorizon(b *testing.B) {
	prob, sched := largeHorizonFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Run(simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 30, Warmup: 2, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorDeepHorizon stretches the fleet workload to a 300 s
// horizon — roughly 4.5M events, ten times BenchmarkSimulatorLargeHorizon.
// One reused Simulator serves every iteration, so allocs/op is the
// steady-state sweep cost.
func BenchmarkSimulatorDeepHorizon(b *testing.B) {
	prob, sched := largeHorizonFixture()
	sim := simulate.NewSimulator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sim.Reset(simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 300, Warmup: 2, Seed: uint64(i),
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorStreamReplay runs the fleet workload through the
// streaming arrival path: per-request renewal sources superposed by a
// MergedStream feed Config.TraceStream one row at a time, with the
// ExpectedArrivals hint sizing the latency samples up front. Same event
// volume as BenchmarkSimulatorLargeHorizon, but the simulator holds one
// staged arrival per cursor instead of the whole trace. CI runs one
// iteration as a smoke test of the pull-based path; the trajectory numbers
// live in results/BENCH.json (Simulator/stream-replay).
func BenchmarkSimulatorStreamReplay(b *testing.B) {
	prob, sched := largeHorizonFixture()
	sim := simulate.NewSimulator()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srcs, err := workload.TraceSources(prob, workload.InterArrivalExponential, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		if err := sim.Reset(simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 30, Warmup: 2, Seed: uint64(i),
			TraceStream:      workload.NewMergedStream(srcs),
			ExpectedArrivals: 45_000, // ~1500 pps × 30 s
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorDropRetransmit measures the NACK loss-feedback path: a
// stable M/M/1/4 queue (ρ = 0.8) whose blocking losses are re-injected from
// the source. The system must stay stable — an overloaded queue with
// retransmission snowballs into an event storm, which is a workload property
// rather than a simulator hot path.
func BenchmarkSimulatorDropRetransmit(b *testing.B) {
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 1000}},
		VNFs: []model.VNF{
			{ID: "f", Instances: 1, Demand: 1, ServiceRate: 100},
		},
		Requests: []model.Request{
			{ID: "r", Chain: []model.VNFID{"f"}, Rate: 80, DeliveryProb: 0.98},
		},
	}
	sched := model.NewSchedule()
	sched.Assign("r", "f", 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := simulate.Run(simulate.Config{
			Problem: prob, Schedule: sched, Horizon: 30, Warmup: 2, Seed: uint64(i),
			BufferSize: 3, DropPolicy: simulate.DropRetransmit, RetransmitDelay: 0.005,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulatorClusterParallel composes 8 datacenter simulators under
// the conservative-window cluster driver with the worker pool sized to the
// machine (workers = GOMAXPROCS): sparse global traffic against steady local
// load, so windows carry enough events for the pool to engage. CI runs one
// iteration as a smoke test of the parallel path; the trajectory numbers
// live in results/BENCH.json (Simulator/cluster-parallel).
func BenchmarkSimulatorClusterParallel(b *testing.B) {
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
	sched := model.NewSchedule()
	for _, r := range prob.Requests {
		for _, f := range prob.VNFs {
			sched.Assign(r.ID, f.ID, 0)
		}
	}
	const dcs = 8
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := cluster.Config{
			WANLatency: 0.005,
			Router:     cluster.LeastLoaded{},
			Global:     []cluster.GlobalRequest{{ID: "global", Rate: 4, Home: 0}},
			Seed:       uint64(i),
			Workers:    runtime.GOMAXPROCS(0),
		}
		for d := 0; d < dcs; d++ {
			cfg.Datacenters = append(cfg.Datacenters, cluster.Datacenter{
				Name: fmt.Sprintf("dc%d", d),
				Sim: simulate.Config{
					Problem: prob, Schedule: sched, Horizon: 10, Warmup: 1,
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

func BenchmarkScheduleCKK(b *testing.B) {
	items := schedulingItems(40, 7) // complete search territory
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := (scheduling.CKK{MaxNodes: 20_000}).Partition(items, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationLocality compares plain BFDSU against the topology-aware
// variant on a fat-tree: the ns/op gap is the price of the locality factor;
// the routing tests measure the network-delay payoff.
func BenchmarkAblationLocality(b *testing.B) {
	topo, err := topology.FatTree(4)
	if err != nil {
		b.Fatal(err)
	}
	cfg := workload.DefaultConfig()
	cfg.NumNodes = 16
	cfg.NumRequests = 200
	p, err := workload.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	for i := range p.Nodes {
		p.Nodes[i].ID = model.NodeID(topo.ComputeVertices()[i])
	}
	scale := 0.6 * p.TotalCapacity() / p.TotalDemand()
	for i := range p.VNFs {
		p.VNFs[i].Demand *= scale
	}
	b.Run("BFDSU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (&placement.BFDSU{Seed: uint64(i)}).Place(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("TA-BFDSU", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := (&routing.TopologyAware{Topo: topo, Seed: uint64(i)}).Place(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkDynamicAdmitDepart(b *testing.B) {
	base := &model.Problem{
		Nodes: []model.Node{{ID: "n1", Capacity: 10000}, {ID: "n2", Capacity: 10000}},
		VNFs: []model.VNF{
			{ID: "fw", Instances: 4, Demand: 50, ServiceRate: 10000},
			{ID: "nat", Instances: 2, Demand: 30, ServiceRate: 10000},
		},
	}
	ctrl, err := dynamic.New(dynamic.Config{Problem: base, SetupCost: dynamic.SetupCostClickOS})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now := float64(i)
		id := model.RequestID(fmt.Sprintf("r%d", i))
		out, err := ctrl.Admit(model.Request{
			ID: id, Chain: []model.VNFID{"fw", "nat"}, Rate: 5, DeliveryProb: 0.98,
		}, now)
		if err != nil {
			b.Fatal(err)
		}
		if out.Accepted {
			if err := ctrl.Depart(id, now); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkImprovePlacement(b *testing.B) {
	p := placementInstance(b, 15, 200, 10)
	res, err := (placement.WFD{}).Place(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := placement.Improve(p, res.Placement, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkImproveSchedule(b *testing.B) {
	items := schedulingItems(250, 7)
	assign, err := (scheduling.RoundRobin{}).Partition(items, 5)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := scheduling.Improve(items, assign, 5, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEndToEndOptimize(b *testing.B) {
	p := placementInstance(b, 15, 200, 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Optimize(p, Options{Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
