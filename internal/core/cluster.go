package core

import (
	"context"
	"fmt"

	"nfvchain/internal/cluster"
	"nfvchain/internal/model"
	"nfvchain/internal/simulate"
)

// ClusterOptions configures PartitionRegions/OptimizeCluster: the multi-
// datacenter lift of the single-datacenter pipeline.
type ClusterOptions struct {
	// Datacenters is the number of regions (>= 1).
	Datacenters int
	// GlobalFraction is the fraction of requests promoted to cluster-level
	// (global) flows, routed across datacenters per arrival. 0 keeps every
	// request regional; 1 promotes all of them.
	GlobalFraction float64
	// Options is the per-region placement/scheduling pipeline configuration;
	// Options.Seed is varied per region so placements differ.
	Options Options
}

// ClusterSolution is the per-region output of OptimizeCluster plus the
// global flow list shared by every region.
type ClusterSolution struct {
	// Regions holds one solved pipeline per datacenter.
	Regions []*Solution
	// Names labels the regions ("region0", ...).
	Names []string
	// Global lists the promoted flows; each is present in every region's
	// problem (so any region can serve it) and homed at the region that
	// would have owned it regionally.
	Global []cluster.GlobalRequest
}

// PartitionRegions splits a base problem into n regional problems. Every
// region receives a full copy of the node set (its own capacity) and the
// VNF catalog; requests are dealt round-robin to their home region. A
// globalFraction share of requests is promoted to global flows: those are
// included in EVERY region's problem — each region provisions for the full
// global load it might be asked to serve, the realistic failover posture —
// and listed in the returned ClusterSolution skeleton with their home set.
// The regional problems are returned unsolved (Regions[i].Problem only).
func PartitionRegions(base *model.Problem, n int, globalFraction float64) ([]*model.Problem, []cluster.GlobalRequest, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("core: %d datacenters; need at least 1", n)
	}
	if !(globalFraction >= 0 && globalFraction <= 1) {
		return nil, nil, fmt.Errorf("core: global fraction %v outside [0,1]", globalFraction)
	}
	if err := base.Validate(); err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	problems := make([]*model.Problem, n)
	for d := range problems {
		problems[d] = &model.Problem{
			Nodes: append([]model.Node{}, base.Nodes...),
			VNFs:  append([]model.VNF{}, base.VNFs...),
		}
	}
	// Promote every k-th request (k = 1/globalFraction); k=1 promotes all.
	globalEvery := 0
	if globalFraction > 0 {
		globalEvery = int(1/globalFraction + 0.5)
		if globalEvery < 1 {
			globalEvery = 1
		}
	}
	var globals []cluster.GlobalRequest
	for i, r := range base.Requests {
		home := i % n
		if globalEvery > 0 && i%globalEvery == 0 {
			globals = append(globals, cluster.GlobalRequest{ID: r.ID, Rate: r.Rate, Home: home})
			for d := range problems {
				problems[d].Requests = append(problems[d].Requests, r)
			}
			continue
		}
		problems[home].Requests = append(problems[home].Requests, r)
	}
	for d, p := range problems {
		if len(p.Requests) == 0 {
			return nil, nil, fmt.Errorf("core: region %d received no requests (only %d requests for %d datacenters)", d, len(base.Requests), n)
		}
	}
	return problems, globals, nil
}

// OptimizeCluster partitions the base problem into regions and runs the
// two-phase pipeline (placement, scheduling, admission control) per region.
func OptimizeCluster(base *model.Problem, opts ClusterOptions) (*ClusterSolution, error) {
	problems, globals, err := PartitionRegions(base, opts.Datacenters, opts.GlobalFraction)
	if err != nil {
		return nil, err
	}
	cs := &ClusterSolution{Global: globals}
	for d, p := range problems {
		regionOpts := opts.Options
		regionOpts.Seed = opts.Options.Seed + uint64(d)
		sol, err := Optimize(p, regionOpts)
		if err != nil {
			return nil, fmt.Errorf("core: region %d: %w", d, err)
		}
		cs.Regions = append(cs.Regions, sol)
		cs.Names = append(cs.Names, fmt.Sprintf("region%d", d))
	}
	return cs, nil
}

// ClusterSimConfig carries the cluster-level simulation knobs on top of the
// per-region SimulationConfig.
type ClusterSimConfig struct {
	// Sim parameterizes every region's simulator; Sim.Seed is varied per
	// region (Seed+d) so regional traffic differs. With more than one
	// region, Sim.Controller must be nil: a controller is bound to one
	// region's problem, placement and schedule, so it cannot be shared (set
	// Controllers instead). For the same reason Sim.Arrivals must be nil: a
	// cursor would be drained by whichever region runs first.
	Sim SimulationConfig
	// WANLatency is the inter-datacenter entry-hop latency (seconds).
	WANLatency float64
	// Router picks the serving datacenter per global arrival; nil means
	// locality-first.
	Router cluster.Router
	// Seed drives the cluster-level global arrival streams.
	Seed uint64
	// Workers selects the cluster execution driver (see cluster.Config): 0
	// runs the event-interleaved sequential loop, any positive value the
	// conservative-window loop. Results are bit-identical across all values.
	Workers int
	// FaultPlans optionally injects per-datacenter fault plans: entry d
	// overrides Sim.FaultPlan for region d, so each datacenter can face its
	// own outage schedule or preemption regime. Length must be zero or match
	// the region count.
	FaultPlans []*simulate.FaultPlan
	// Controllers optionally attaches one controller per datacenter (entry
	// d overrides Sim.Controller for region d; nil leaves the region
	// uncontrolled). Each ticks every Sim.ControlInterval. Length must be
	// zero or match the region count.
	Controllers []simulate.Controller
}

// SimulateCluster runs the composed region-scale simulation on an optimized
// cluster solution.
func SimulateCluster(cs *ClusterSolution, cfg ClusterSimConfig) (*cluster.Results, error) {
	return SimulateClusterContext(context.Background(), cs, cfg)
}

// SimulateClusterContext is SimulateCluster with cancellation.
func SimulateClusterContext(ctx context.Context, cs *ClusterSolution, cfg ClusterSimConfig) (*cluster.Results, error) {
	if len(cs.Regions) == 0 {
		return nil, fmt.Errorf("core: cluster solution has no regions")
	}
	if len(cfg.FaultPlans) != 0 && len(cfg.FaultPlans) != len(cs.Regions) {
		return nil, fmt.Errorf("core: %d fault plans for %d regions (want 0 or %d)",
			len(cfg.FaultPlans), len(cs.Regions), len(cs.Regions))
	}
	if len(cfg.Controllers) != 0 && len(cfg.Controllers) != len(cs.Regions) {
		return nil, fmt.Errorf("core: %d controllers for %d regions (want 0 or %d)",
			len(cfg.Controllers), len(cs.Regions), len(cs.Regions))
	}
	if len(cs.Regions) > 1 && cfg.Sim.Controller != nil {
		return nil, fmt.Errorf("core: Sim.Controller would be shared by %d regions; a controller is bound to one region, so set one per region in Controllers", len(cs.Regions))
	}
	if len(cs.Regions) > 1 && cfg.Sim.Arrivals != nil {
		return nil, fmt.Errorf("core: Sim.Arrivals would be shared by %d regions, and the first to run would drain it", len(cs.Regions))
	}
	ccfg := cluster.Config{
		WANLatency: cfg.WANLatency,
		Router:     cfg.Router,
		Global:     cs.Global,
		Seed:       cfg.Seed,
		Workers:    cfg.Workers,
	}
	for d, sol := range cs.Regions {
		regionSim := cfg.Sim
		regionSim.Seed = cfg.Sim.Seed + uint64(d)
		if len(cfg.FaultPlans) > 0 {
			regionSim.FaultPlan = cfg.FaultPlans[d]
		}
		if len(cfg.Controllers) > 0 {
			regionSim.Controller = cfg.Controllers[d]
		}
		name := fmt.Sprintf("region%d", d)
		if d < len(cs.Names) && cs.Names[d] != "" {
			name = cs.Names[d]
		}
		ccfg.Datacenters = append(ccfg.Datacenters, cluster.Datacenter{
			Name: name,
			Sim:  simConfig(sol, regionSim),
		})
	}
	c, err := cluster.New(ccfg)
	if err != nil {
		return nil, err
	}
	return c.RunContext(ctx)
}
