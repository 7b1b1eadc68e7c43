package nfvchain

import (
	"context"
	"io"

	"nfvchain/internal/cluster"
	"nfvchain/internal/control"
	"nfvchain/internal/core"
	"nfvchain/internal/experiment"
	"nfvchain/internal/model"
	"nfvchain/internal/placement"
	"nfvchain/internal/portfolio"
	"nfvchain/internal/repair"
	"nfvchain/internal/rng"
	"nfvchain/internal/routing"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/simulate"
	"nfvchain/internal/topology"
	"nfvchain/internal/workload"
)

// Domain types re-exported from the internal model.
type (
	// VNFID identifies a virtual network function.
	VNFID = model.VNFID
	// NodeID identifies a computing node.
	NodeID = model.NodeID
	// RequestID identifies a request.
	RequestID = model.RequestID
	// VNF is a virtual network function with its deployment sizing.
	VNF = model.VNF
	// Node is a computing node (commodity server).
	Node = model.Node
	// Request is a flow traversing an ordered VNF chain.
	Request = model.Request
	// Problem bundles a complete placement-and-scheduling instance.
	Problem = model.Problem
	// Placement maps each VNF to its hosting node.
	Placement = model.Placement
	// Schedule maps each (request, VNF) pair to a service instance.
	Schedule = model.Schedule
)

// Pipeline types re-exported from the core optimizer.
type (
	// Options configures the two-phase pipeline; the zero value selects the
	// paper's proposed algorithms (BFDSU + RCKK with admission control).
	Options = core.Options
	// Solution is the output of Optimize.
	Solution = core.Solution
	// Evaluation carries the analytic objective values of a solution.
	Evaluation = core.Evaluation
	// SimulationConfig carries discrete-event simulation knobs.
	SimulationConfig = core.SimulationConfig
	// SimulationResults aggregates one simulation run's measurements.
	SimulationResults = simulate.Results
	// ServiceDist selects the simulator's service-time distribution.
	ServiceDist = simulate.ServiceDist
	// DropPolicy selects the simulator's full-buffer behavior.
	DropPolicy = simulate.DropPolicy
)

// Service-time distributions for SimulationConfig.ServiceDist.
const (
	// ServiceExponential is the paper's M/M/1 assumption (CV = 1).
	ServiceExponential = simulate.ServiceExponential
	// ServiceDeterministic models fixed per-packet work (CV = 0).
	ServiceDeterministic = simulate.ServiceDeterministic
	// ServiceLogNormal models heavy-tailed processing (CV ≈ 1.31).
	ServiceLogNormal = simulate.ServiceLogNormal
)

// Drop policies for SimulationConfig.DropPolicy.
const (
	// DropDiscard silently discards packets meeting a full buffer (default).
	DropDiscard = simulate.DropDiscard
	// DropRetransmit re-injects dropped packets from the source after
	// SimulationConfig.RetransmitDelay (NACK loss feedback).
	DropRetransmit = simulate.DropRetransmit
)

// Cluster mode: N datacenter simulators composed under one global clock,
// re-exported from internal/cluster and internal/core.
type (
	// ClusterOptions configures the multi-datacenter pipeline: region count,
	// the fraction of requests promoted to cluster-level flows, and the
	// per-region pipeline Options.
	ClusterOptions = core.ClusterOptions
	// ClusterSolution is the per-region output of OptimizeCluster plus the
	// shared global flow list.
	ClusterSolution = core.ClusterSolution
	// ClusterSimConfig carries the cluster-level simulation knobs (WAN
	// latency, routing policy, cluster seed) on top of the per-region
	// SimulationConfig.
	ClusterSimConfig = core.ClusterSimConfig
	// ClusterResults aggregates one cluster run: per-datacenter results plus
	// cluster-wide sums and routing accounting (WAN hops, per-DC shares).
	ClusterResults = cluster.Results
	// ClusterRouter is a pluggable cross-datacenter routing/admission
	// policy observing live per-datacenter state.
	ClusterRouter = cluster.Router
	// ClusterDCState is the live per-datacenter view a ClusterRouter
	// observes for each routing decision.
	ClusterDCState = cluster.DCState
	// GlobalRequest is a cluster-level flow routed across datacenters per
	// arrival.
	GlobalRequest = cluster.GlobalRequest
)

// OptimizeCluster partitions the problem into regions (requests dealt
// round-robin, every region keeping the full node template) and runs the
// two-phase pipeline per region; a GlobalFraction share of requests becomes
// cluster-level flows provisioned in every region.
func OptimizeCluster(base *Problem, opts ClusterOptions) (*ClusterSolution, error) {
	return core.OptimizeCluster(base, opts)
}

// SimulateCluster composes one Simulator per region under a single global
// clock — advancing whichever datacenter holds the earliest pending event —
// with global arrivals routed per the configured policy and charged a WAN
// entry hop when served away from home.
func SimulateCluster(cs *ClusterSolution, cfg ClusterSimConfig) (*ClusterResults, error) {
	return core.SimulateCluster(cs, cfg)
}

// SimulateClusterContext is SimulateCluster with cancellation.
func SimulateClusterContext(ctx context.Context, cs *ClusterSolution, cfg ClusterSimConfig) (*ClusterResults, error) {
	return core.SimulateClusterContext(ctx, cs, cfg)
}

// NewClusterRouter parses a routing policy name
// (locality|least-loaded|weighted) into its ClusterRouter.
func NewClusterRouter(policy string) (ClusterRouter, error) {
	return cluster.ParseRoutePolicy(policy)
}

// ClusterRoutePolicies lists the built-in routing policy names.
func ClusterRoutePolicies() []string { return cluster.RoutePolicies() }

// Fault injection and self-healing, re-exported.
type (
	// FaultPlan injects node failures into a simulation: random MTBF/MTTR
	// chains and/or scheduled outages. nil disables fault injection.
	FaultPlan = simulate.FaultPlan
	// Outage is one scheduled node outage of a FaultPlan.
	Outage = simulate.Outage
	// FailurePolicy selects the fate of packets caught at failed instances.
	FailurePolicy = simulate.FailurePolicy
	// FaultHook observes node transitions mid-run and may repair the
	// simulation through the RepairControl it receives.
	FaultHook = simulate.FaultHook
	// RepairControl is the handle a FaultHook uses to reroute requests and
	// boot replacement instances at simulated time.
	RepairControl = simulate.RepairControl
	// RepairConfig parameterizes a self-healing repair controller.
	RepairConfig = repair.Config
	// RepairController reschedules and re-places around node failures; pass
	// it as SimulationConfig.FaultHook.
	RepairController = repair.Controller
	// RepairMode selects how much of the repair machinery is active.
	RepairMode = repair.Mode
	// RepairStats counts one run's repair activity.
	RepairStats = repair.Stats
)

// Failure policies for SimulationConfig.FailurePolicy.
const (
	// FailDrop counts packets caught at a failed instance as failure drops
	// (crash loss, the default).
	FailDrop = simulate.FailDrop
	// FailRetransmit re-injects them from the source after
	// SimulationConfig.RetransmitDelay (NACK loss feedback).
	FailRetransmit = simulate.FailRetransmit
)

// Repair modes for RepairConfig.Mode.
const (
	// RepairNone observes failures without acting (the baseline).
	RepairNone = repair.ModeNone
	// RepairReschedule rebalances requests across surviving instances.
	RepairReschedule = repair.ModeReschedule
	// RepairRescheduleReplace additionally boots replacement instances on
	// surviving nodes, paying the configured setup cost.
	RepairRescheduleReplace = repair.ModeRescheduleReplace
)

// Setup costs cited by the paper (seconds) for RepairConfig.SetupCost and
// ControlConfig.SetupCost: a middlebox VM boot vs a ClickOS-style
// lightweight instantiation.
const (
	SetupCostVM      = repair.SetupCostVM
	SetupCostClickOS = repair.SetupCostClickOS
)

// NewRepairController builds a self-healing controller for one simulation
// run; wire it in via SimulationConfig.FaultHook alongside a FaultPlan.
func NewRepairController(cfg RepairConfig) (*RepairController, error) {
	return repair.New(cfg)
}

// ParseRepairMode parses a textual repair mode (none|reschedule|replace).
func ParseRepairMode(s string) (RepairMode, error) { return repair.ParseMode(s) }

// Online control plane, re-exported.
type (
	// ControlHook receives periodic controller ticks when wired in via
	// SimulationConfig.Control (+ ControlInterval).
	ControlHook = simulate.ControlHook
	// ControlPlane is the observation-and-actuation handle a ControlHook
	// receives at each tick.
	ControlPlane = simulate.ControlPlane
	// InstanceObs is one instance's control-plane observation at a tick.
	InstanceObs = simulate.InstanceObs
	// PreemptionPlan extends a FaultPlan with spot-style correlated capacity
	// loss: drawn node groups go down together, with optional advance notice.
	PreemptionPlan = simulate.PreemptionPlan
	// PreemptionNoticeHook is optionally implemented by a FaultHook to
	// receive advance notice of correlated preemptions.
	PreemptionNoticeHook = simulate.PreemptionNoticeHook
	// ControlConfig parameterizes the pool-manager controller.
	ControlConfig = control.Config
	// Controller is the online pool manager: autoscaling, migration and
	// graceful degradation on top of the repair machinery. Wire one value in
	// as both SimulationConfig.FaultHook and SimulationConfig.Control.
	Controller = control.Controller
	// ControlPolicy selects how much of the control plane is active.
	ControlPolicy = control.Policy
	// ControlStats counts one run's control-plane activity.
	ControlStats = control.Stats
)

// Control policies for ControlConfig.Policy, ordered by escalation.
const (
	// ControlNone disables the control plane (the baseline).
	ControlNone = control.PolicyNone
	// ControlRepair reacts to node transitions like a repair controller.
	ControlRepair = control.PolicyRepair
	// ControlAutoscale adds utilization-driven scaling and admission
	// shedding at each tick.
	ControlAutoscale = control.PolicyAutoscale
	// ControlAutoscaleMigrate additionally migrates instances off failed,
	// hot, and about-to-be-preempted nodes.
	ControlAutoscaleMigrate = control.PolicyAutoscaleMigrate
)

// NewController builds an online pool-manager controller for one simulation
// run; wire it in via SimulationConfig.FaultHook and SimulationConfig.Control.
func NewController(cfg ControlConfig) (*Controller, error) { return control.New(cfg) }

// ParseControlPolicy parses a textual control policy
// (none|repair|autoscale|autoscale+migrate).
func ParseControlPolicy(s string) (ControlPolicy, error) { return control.ParsePolicy(s) }

// Algorithm interfaces re-exported for callers supplying their own
// strategies via Options.
type (
	// PlacementAlgorithm is a VNF chain placement strategy.
	PlacementAlgorithm = placement.Algorithm
	// SchedulingAlgorithm partitions requests across service instances.
	SchedulingAlgorithm = scheduling.Partitioner
)

// Workload generation, re-exported.
type (
	// WorkloadConfig parameterizes synthetic problem generation.
	WorkloadConfig = workload.Config
	// Trace is a packet-level arrival trace for trace-driven simulation.
	Trace = workload.Trace
	// ArrivalSource is a pull-based arrival-time generator consumed by the
	// simulator (SimulationConfig.Sources) and the cluster driver.
	ArrivalSource = simulate.ArrivalSource
	// TraceSource is a forward-only (time, request) cursor for
	// constant-memory trace replay (SimulationConfig.TraceStream).
	TraceSource = simulate.TraceSource
	// WorkloadSource is a deterministic arrival process from the generator
	// tier (Poisson, log-normal renewal, diurnal NHPP, MMPP on/off).
	WorkloadSource = workload.Source
	// ClientClass describes one heterogeneous client population in a
	// ServeGen-style heavy-traffic workload mix.
	ClientClass = workload.ClientClass
	// ClassWorkload is the per-request source set built from client classes.
	ClassWorkload = workload.ClassWorkload
	// TraceStream is a streaming cursor over a trace CSV.
	TraceStream = workload.TraceStream
	// MergedStream merges live generator sources into one time-ordered
	// arrival cursor in O(#sources) memory.
	MergedStream = workload.MergedStream
)

// DefaultClientClasses returns the baseline heavy-traffic mix: a steady
// Poisson majority, a diurnal NHPP cohort and a small bursty on/off cohort.
func DefaultClientClasses() []ClientClass { return workload.DefaultClasses() }

// BuildClassSources partitions the problem's requests across client classes
// and builds a deterministic arrival source per request; identical inputs
// (including seed) yield identical sources.
func BuildClassSources(p *Problem, classes []ClientClass, seed uint64) (*ClassWorkload, error) {
	return workload.BuildSources(p, classes, seed)
}

// NewTraceStream opens a streaming cursor over a trace CSV (as written by
// Trace.WriteCSV or cmd/tracegen), validating the header row.
func NewTraceStream(r io.Reader) (*TraceStream, error) { return workload.NewTraceStream(r) }

// NewMergedStream merges per-request arrival sources into one time-ordered
// cursor; it satisfies TraceSource, so class-generated workloads can be
// streamed into the simulator or serialized to CSV without materialization.
// Callers bound the pull by their horizon — generator sources never end.
func NewMergedStream(sources map[RequestID]WorkloadSource) *MergedStream {
	return workload.NewMergedStream(sources)
}

// Experiment harness, re-exported.
type (
	// ExperimentConfig tunes experiment averaging depth.
	ExperimentConfig = experiment.Config
	// ExperimentTable is the regenerated data behind one paper figure.
	ExperimentTable = experiment.Table
)

// Solver portfolio with anytime racing, re-exported.
type (
	// PortfolioSpec is one parsed portfolio entry: a solver name plus its
	// tuning parameters (see ParsePortfolioSpec for the grammar).
	PortfolioSpec = portfolio.Spec
	// PortfolioIncumbent is one monotone best-so-far improvement reported
	// by a racing solver: its objective, iteration and elapsed time. It
	// carries no placement or schedule; the race's winning solution is
	// returned once, at the end.
	PortfolioIncumbent = portfolio.Incumbent
	// PortfolioObjective weighs nodes-in-service against mean request
	// latency in the portfolio's scalar lower-is-better objective.
	PortfolioObjective = portfolio.Objective
	// PortfolioSolver is the anytime solver interface every portfolio
	// member implements.
	PortfolioSolver = portfolio.Solver
	// RaceOptions configures SolveRace (portfolio, workers, seed, deadline
	// via context, incumbent callback).
	RaceOptions = core.RaceOptions
	// RaceResult reports a finished race: winner, per-solver outcomes, and
	// publication counters.
	RaceResult = portfolio.RaceResult
	// SolverOutcome is one racer's final result inside a RaceResult.
	SolverOutcome = portfolio.SolverOutcome
)

// ParsePortfolioSpec parses one solver spec, "name" or
// "name:key=value;key=value" — e.g. "sa:iters=20000;t0=2.0". Solver names
// are listed by PortfolioSolverNames.
func ParsePortfolioSpec(s string) (PortfolioSpec, error) { return portfolio.ParseSpec(s) }

// ParsePortfolioSpecs parses and validates a full portfolio (rejecting
// empty and oversized portfolios).
func ParsePortfolioSpecs(specs []string) ([]PortfolioSpec, error) { return portfolio.ParseSpecs(specs) }

// DefaultPortfolio returns the standard racing lineup: greedy, ffd, nah
// baselines plus the sa, lns, and pso metaheuristics at default budgets.
func DefaultPortfolio() []string { return portfolio.DefaultPortfolio() }

// PortfolioSolverNames lists the recognized portfolio solver names.
func PortfolioSolverNames() []string { return portfolio.SolverNames() }

// SolveRace races a portfolio of solvers on parallel workers sharing a
// best-so-far incumbent, and returns the winner finalized exactly like
// Optimize (admission control applied). Bound wall-clock with a context
// deadline; at a fixed RaceOptions.Seed each solver's incumbent trajectory
// is deterministic regardless of worker count.
func SolveRace(ctx context.Context, p *Problem, opts RaceOptions) (*Solution, *RaceResult, error) {
	return core.SolveRace(ctx, p, opts)
}

// Optimize runs the two-phase pipeline (placement, then scheduling with
// admission control) on the problem.
func Optimize(p *Problem, opts Options) (*Solution, error) {
	return core.Optimize(p, opts)
}

// Evaluate computes the analytic objectives of a solution: average node
// utilization (Eq. 13), nodes in service (Eq. 14), per-instance response
// times (Eq. 15) and total request latency including link hops (Eq. 16).
func Evaluate(sol *Solution) (*Evaluation, error) {
	return core.Evaluate(sol)
}

// Simulate runs the packet-level discrete-event simulator on a solution.
func Simulate(sol *Solution, cfg SimulationConfig) (*SimulationResults, error) {
	return core.Simulate(sol, cfg)
}

// SimulateContext is Simulate with cancellation: the simulator's event loop
// polls ctx every few thousand events and aborts with ctx.Err() when it
// fires. With a background context it is bit-identical to Simulate.
func SimulateContext(ctx context.Context, sol *Solution, cfg SimulationConfig) (*SimulationResults, error) {
	return core.SimulateContext(ctx, sol, cfg)
}

// ReadResultsJSON parses simulation results written with
// SimulationResults.WriteJSON (or nfvsim -json / the nfvd daemon).
func ReadResultsJSON(r io.Reader) (*SimulationResults, error) {
	return simulate.ReadResultsJSON(r)
}

// GenerateWorkload synthesizes a problem instance from the config;
// identical configs (including Seed) yield identical problems.
func GenerateWorkload(cfg WorkloadConfig) (*Problem, error) {
	return workload.Generate(cfg)
}

// DefaultWorkloadConfig returns the paper's baseline setup: 15 VNFs, 200
// requests, 10 nodes, chains of up to 6 VNFs, λ ∈ [1,100] pps, P = 0.98.
func DefaultWorkloadConfig() WorkloadConfig {
	return workload.DefaultConfig()
}

// GenerateTrace samples a packet-arrival trace for every request in the
// problem over the horizon (seconds), for trace-driven simulation.
func GenerateTrace(p *Problem, horizon float64, seed uint64) (*Trace, error) {
	return workload.GenerateTrace(p, horizon, workload.InterArrivalExponential, seed)
}

// Placement algorithm constructors.

// NewBFDSU returns the paper's priority-driven weighted placement algorithm.
func NewBFDSU(seed uint64) PlacementAlgorithm { return &placement.BFDSU{Seed: seed} }

// NewFFD returns the First Fit Decreasing baseline.
func NewFFD() PlacementAlgorithm { return placement.FFD{} }

// NewBFD returns deterministic Best Fit Decreasing.
func NewBFD() PlacementAlgorithm { return placement.BFD{} }

// NewWFD returns Worst Fit Decreasing (the spreading baseline).
func NewWFD() PlacementAlgorithm { return placement.WFD{} }

// NewNAH returns the chain-oriented Node Assignment Heuristic of Xia et al.
func NewNAH() PlacementAlgorithm { return placement.NAH{} }

// NewExactPlacer returns the branch-and-bound optimal placer for small
// instances.
func NewExactPlacer() PlacementAlgorithm { return &placement.Exact{} }

// Scheduling algorithm constructors.

// NewRCKK returns the paper's Reverse Complete Karmarkar-Karp scheduler.
func NewRCKK() SchedulingAlgorithm { return scheduling.RCKK{} }

// NewCGA returns the greedy (LPT) baseline scheduler.
func NewCGA() SchedulingAlgorithm { return scheduling.CGA{} }

// NewExactScheduler returns the branch-and-bound optimal partitioner for
// small instances.
func NewExactScheduler() SchedulingAlgorithm { return &scheduling.Exact{} }

// Topology substrate, re-exported.

// Topology is a datacenter network graph of computing nodes and switches.
type Topology = topology.Graph

// NewFatTree builds a k-ary fat-tree datacenter topology with k³/4
// computing nodes; k must be even.
func NewFatTree(k int) (*Topology, error) { return topology.FatTree(k) }

// NewSNDlibTopology returns one of the embedded SNDlib-style reference
// networks; see SNDlibTopologyNames.
func NewSNDlibTopology(name string) (*Topology, error) { return topology.SNDlib(name) }

// SNDlibTopologyNames lists the embedded reference networks.
func SNDlibTopologyNames() []string { return topology.SNDlibNames() }

// NewRandomTopology returns a seeded random connected topology of n
// computing nodes and about m links.
func NewRandomTopology(n, m int, seed uint64) (*Topology, error) {
	return topology.RandomConnected(n, m, rng.New(seed))
}

// NewCKK returns the Complete Karmarkar-Karp scheduler (bounded complete
// search; the first descent is RCKK).
func NewCKK() SchedulingAlgorithm { return scheduling.CKK{} }

// NewKKForward returns the forward-combining KK ablation variant.
func NewKKForward() SchedulingAlgorithm { return scheduling.KKForward{} }

// NewRoundRobin returns the cyclic-assignment baseline scheduler.
func NewRoundRobin() SchedulingAlgorithm { return scheduling.RoundRobin{} }

// Routing and locality.

// ChainRouter resolves placed chains to physical paths over a topology.
type ChainRouter = routing.Router

// ChainPath is one request's physical route under a placement.
type ChainPath = routing.Path

// NewChainRouter builds a router over the topology.
func NewChainRouter(g *Topology) (*ChainRouter, error) { return routing.NewRouter(g) }

// NewTopologyAwarePlacer returns the locality-extended BFDSU (TA-BFDSU):
// snug fits weighted toward nodes close to each VNF's chain peers.
func NewTopologyAwarePlacer(g *Topology, seed uint64) PlacementAlgorithm {
	return &routing.TopologyAware{Topo: g, Seed: seed}
}

// AddMemoryDimension annotates a problem with a memory resource dimension,
// exercising the multi-resource "additional constraints" of the model.
func AddMemoryDimension(p *Problem, seed uint64) error {
	return workload.AddMemoryDimension(p, seed)
}

// Polish passes and bounds.

// ImprovePlacement runs a deterministic local search (node evacuation +
// relocation) on a feasible placement; the result never uses more nodes and
// respects every resource dimension.
func ImprovePlacement(p *Problem, pl *Placement) (*Placement, error) {
	return placement.Improve(p, pl, 0)
}

// ImproveSchedule runs a deterministic move/swap local search on a complete
// schedule; per-VNF makespans never grow.
func ImproveSchedule(p *Problem, s *Schedule) (*Schedule, error) {
	return scheduling.ImproveSchedule(p, s)
}

// PlacementLowerBound returns a provable lower bound on the number of nodes
// in service for any feasible placement (capacity covering + big-item
// pigeonhole, all resource dimensions).
func PlacementLowerBound(p *Problem) int { return placement.LowerBound(p) }

// TraceStats summarizes one request's arrival process in a recorded trace.
type TraceStats = workload.TraceStats

// AnalyzeTrace computes per-request arrival statistics — empirical rate,
// inter-arrival burstiness and a Kolmogorov–Smirnov Poisson check.
func AnalyzeTrace(t *Trace) []TraceStats { return workload.AnalyzeTrace(t) }

// AnalyzeArrivals is the one-pass streaming counterpart of AnalyzeTrace: it
// computes the same per-request statistics from any forward-only arrival
// cursor (a TraceStream, a MergedStream) in O(#requests) memory. A positive
// horizon scales Rate and bounds the pull (required for never-ending
// generator cursors); pass <= 0 to drain a finite cursor and use the latest
// observed arrival time.
func AnalyzeArrivals(c workload.ArrivalCursor, horizon float64) ([]TraceStats, error) {
	return workload.AnalyzeArrivals(c, horizon)
}

// AnalyzeTraceCSV streams a trace CSV through AnalyzeArrivals — the
// constant-memory replacement for reading the file and calling AnalyzeTrace.
func AnalyzeTraceCSV(r io.Reader) ([]TraceStats, error) { return workload.AnalyzeTraceCSV(r) }

// ReadProblemJSON parses and validates a problem written with
// Problem.WriteJSON (or cmd/tracegen).
func ReadProblemJSON(r io.Reader) (*Problem, error) { return model.ReadJSON(r) }

// ReadSolutionJSON parses and validates a solution written with
// Solution.WriteJSON (or nfvsim -out).
func ReadSolutionJSON(r io.Reader) (*Solution, error) { return core.ReadSolutionJSON(r) }

// Experiments.

// RunExperiment regenerates one of the paper's evaluation figures
// ("fig5" … "fig16", "tail"); see ExperimentIDs.
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentTable, error) {
	return experiment.Run(id, cfg)
}

// ExperimentIDs lists the available experiments.
func ExperimentIDs() []string { return experiment.IDs() }

// DefaultExperimentConfig mirrors the paper's averaging protocol (1000
// scheduling trials per point).
func DefaultExperimentConfig() ExperimentConfig { return experiment.DefaultConfig() }

// FastExperimentConfig trades averaging depth for speed.
func FastExperimentConfig() ExperimentConfig { return experiment.FastConfig() }
