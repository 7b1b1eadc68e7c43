// Package nfvchain is a library for joint optimization of VNF chain
// placement and request scheduling in NFV datacenters, reproducing the
// system of Zhang et al., "Joint Optimization of Chain Placement and Request
// Scheduling for Network Function Virtualization" (IEEE ICDCS 2017).
//
// The library models a datacenter as computing nodes with CPU-bounded
// capacities hosting Virtual Network Functions (VNFs); requests are Poisson
// packet flows that traverse ordered VNF chains, with packet-loss feedback
// and retransmission. Two coupled NP-hard problems are solved heuristically:
//
//   - Chain placement: BFDSU (Best Fit Decreasing using Smallest Used nodes
//     with the largest probability) packs every VNF's service-instance
//     bundle onto nodes, maximizing the average utilization of nodes in
//     service. Baselines: FFD, BFD, WFD, NAH, random, and an exact
//     branch-and-bound optimum for small instances.
//
//   - Request scheduling: RCKK (Reverse Complete Karmarkar-Karp) balances
//     the requests sharing a VNF across its M_f service instances,
//     minimizing the average M/M/1 response latency. Baselines: CGA
//     (greedy), forward-combining KK, round-robin, random, and an exact
//     branch-and-bound partitioner.
//
// Solutions are evaluated two ways, which agree by construction and by
// test: analytically via open Jackson network theory (per-instance M/M/1
// response times, Kleinrock flow merging, λ/P loss inflation) and
// empirically via a packet-level discrete-event simulator.
//
// # Quick start
//
//	problem, err := nfvchain.GenerateWorkload(nfvchain.DefaultWorkloadConfig())
//	if err != nil { ... }
//	sol, err := nfvchain.Optimize(problem, nfvchain.Options{})
//	if err != nil { ... }
//	eval, err := nfvchain.Evaluate(sol)
//	if err != nil { ... }
//	fmt.Printf("utilization %.1f%% over %d nodes, mean latency %.4fs\n",
//	    eval.AvgUtilization*100, eval.NodesInService, eval.MeanRequestLatency())
//
// # Cluster mode
//
// Beyond the paper's single datacenter, OptimizeCluster partitions a
// workload across N regions (a configurable fraction of requests promoted
// to global flows any region can serve) and SimulateCluster composes the N
// per-region simulators under one global clock: the underlying Simulator
// exposes stepping primitives (HasPendingEvents, PeekNextEventTime,
// ProcessNextEvent, Inject), and internal/cluster always advances the
// datacenter with the earliest pending event, routing each global arrival
// with a pluggable policy (NewClusterRouter: locality, least-loaded,
// weighted) and charging a WAN entry hop for off-home service. A
// 1-datacenter cluster at zero WAN latency is bit-identical to a plain
// Simulate call at the same seed.
//
// # Streaming workloads
//
// Beyond the default flat-Poisson tier, SimulationConfig accepts pull-based
// arrivals: Sources maps requests to ArrivalSource generators — Poisson and
// log-normal renewals, diurnal NHPP, bursty MMPP on/off processes, built
// individually in internal/workload or as a weighted steady/diurnal/bursty
// client-class mix by BuildClassSources — and TraceStream replays a merged
// arrival cursor (NewTraceStream over a CSV, or NewMergedStream superposing
// per-request sources). The engine stages one arrival event per
// live cursor and re-pulls after each dispatch, so multi-million-arrival
// replays run in O(#requests) long-lived memory; ExpectedArrivals pre-sizes
// the latency-sample slice, and AnalyzeArrivals computes per-flow rate, burstiness
// and a Poisson KS test from any cursor in one pass. Streamed replay is
// bit-identical to replaying the same trace from memory, and explicit Poisson
// sources on the canonical streams are bit-identical to the built-in tier
// (also for cluster global flows via GlobalRequest sources).
//
// # Solver portfolio and anytime racing
//
// Beyond the fixed two-phase pipeline, SolveRace optimizes placement and
// scheduling jointly: a portfolio of solvers — the greedy pipelines (greedy,
// bfd, ffd, nah, exact) plus a metaheuristic tier of simulated annealing
// (sa), large-neighborhood search (lns) and particle-swarm placement with a
// KK inner scheduler (pso) — races on parallel workers over one compiled,
// read-only view of the problem (its BFD and RCKK starting points computed
// once), each reporting a monotone stream of incumbents (PortfolioIncumbent:
// objective, iteration and time, not the solution itself) while a shared
// first-improvement publication feeds RaceOptions.OnIncumbent. Annealing
// moves are scored by rescoring only the one VNF a move touched. Budgets are
// iterations, not wall clock, so at a fixed RaceOptions.Seed every solver's
// (iteration, objective) trajectory is deterministic and the winner is
// invariant to worker count; a context deadline bounds wall clock, returning
// best-so-far. Specs parse from "name:key=value;..." strings
// (ParsePortfolioSpecs, DefaultPortfolio); the winner is finalized exactly
// like Optimize, admission control included. The same race runs behind
// cmd/nfvd's POST /v1/solve (portfolio + deadline_ms, trajectory in job
// progress) and cmd/nfvsim's -solver portfolio flag.
//
// # Online control plane
//
// The simulator's deployment need not stay static: NewController builds a
// pool manager that attaches as both SimulationConfig.FaultHook and
// SimulationConfig.Control (ticking every ControlInterval simulated
// seconds) and, by ControlPolicy, autoscales each VNF's instance pool
// against observed utilization, migrates instances off failed/hot/doomed
// nodes for an explicit cost, and sheds uncoverable admissions
// deterministically (Results.Shed). FaultPlan.Preemption adds correlated
// node-group losses with optional advance notice the controller evacuates
// ahead of. Control == nil and Preemption == nil keep every run
// bit-identical to historical ones; per-region controllers compose into
// cluster mode via ClusterSimConfig.FaultPlans and FaultHooks.
//
// The cmd/nfvsim binary regenerates every figure of the paper's evaluation;
// see EXPERIMENTS.md for the paper-vs-measured record and DESIGN.md for the
// architecture. The cmd/nfvd binary serves the optimizer and simulator as a
// long-running HTTP daemon (job queue, worker pool, content-addressed result
// cache, cancellation) with a Go client in internal/service; served results
// are bit-identical to the direct library calls at the same seed.
package nfvchain
