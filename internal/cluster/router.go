package cluster

import (
	"fmt"

	"nfvchain/internal/model"
	"nfvchain/internal/workload"
)

// DCState is the live per-datacenter view a routing policy observes when
// placing one global arrival. The slice passed to Route is rebuilt (in a
// reused buffer) before every decision, so Pending and Routed track the
// simulation in real time.
type DCState struct {
	// Name is the datacenter's configured name.
	Name string
	// Home reports whether this datacenter is the arrival's home region.
	Home bool
	// CanServe reports whether the datacenter scheduled the request — only
	// such datacenters are valid routing targets.
	CanServe bool
	// Pending is the datacenter's live packet population (admitted, not yet
	// delivered or lost) at the moment of the decision.
	Pending int
	// Routed counts global packets this policy has already sent to the
	// datacenter during this run.
	Routed int
	// Capacity is the datacenter's total node capacity Σ_v A_v — the static
	// weight of the weighted policy.
	Capacity float64
}

// Router is a pluggable cross-datacenter routing/admission policy: Route
// picks the datacenter index to serve one arrival of req, or -1 to reject
// it. Implementations must be deterministic — the ClusterSimulator's
// reproducibility guarantee extends only to policies that decide purely
// from their inputs (and their own deterministic state).
type Router interface {
	Name() string
	Route(req *GlobalRequest, dcs []DCState) int
}

// LoadOblivious is an optional Router refinement: a policy whose
// LoadOblivious method returns true promises its decisions never read the
// live DCState.Pending field (only static fields and its own counters). The
// conservative-window driver uses this to extend per-datacenter lookahead —
// when routing can't observe live load, non-target datacenters may drain
// past the routing barrier by the WAN entry latency without changing any
// decision. Routers that don't implement the interface are treated as
// load-observing.
type LoadOblivious interface {
	LoadOblivious() bool
}

// LocalityFirst routes every arrival to its home datacenter when the home
// can serve it, avoiding the WAN entry hop; otherwise it falls back to the
// least-loaded serving datacenter. This is the latency-first baseline.
type LocalityFirst struct{}

// Name implements Router.
func (LocalityFirst) Name() string { return "locality" }

// Route implements Router.
func (LocalityFirst) Route(req *GlobalRequest, dcs []DCState) int {
	for i := range dcs {
		if dcs[i].Home && dcs[i].CanServe {
			return i
		}
	}
	return leastLoaded(dcs)
}

// LeastLoaded routes every arrival to the serving datacenter with the
// smallest live packet population, trading WAN hops for queueing headroom
// (ties break to the lowest index).
type LeastLoaded struct{}

// Name implements Router.
func (LeastLoaded) Name() string { return "least-loaded" }

// Route implements Router.
func (LeastLoaded) Route(req *GlobalRequest, dcs []DCState) int {
	return leastLoaded(dcs)
}

func leastLoaded(dcs []DCState) int {
	best := -1
	for i := range dcs {
		if !dcs[i].CanServe {
			continue
		}
		if best < 0 || dcs[i].Pending < dcs[best].Pending {
			best = i
		}
	}
	return best
}

// Weighted is a deterministic weighted round-robin: each arrival goes to
// the serving datacenter minimizing (Routed+1)/Capacity, so long-run route
// shares converge to the capacity proportions regardless of arrival order
// (ties break to the lowest index). It ignores live load — the static
// contrast policy to LeastLoaded.
type Weighted struct{}

// Name implements Router.
func (Weighted) Name() string { return "weighted" }

// LoadOblivious implements LoadOblivious: the policy reads only Routed and
// Capacity, never live Pending.
func (Weighted) LoadOblivious() bool { return true }

// Route implements Router.
func (Weighted) Route(req *GlobalRequest, dcs []DCState) int {
	best, bestCost := -1, 0.0
	for i := range dcs {
		if !dcs[i].CanServe || !(dcs[i].Capacity > 0) {
			continue
		}
		cost := float64(dcs[i].Routed+1) / dcs[i].Capacity
		if best < 0 || cost < bestCost {
			best, bestCost = i, cost
		}
	}
	return best
}

// ParseRoutePolicy parses a -route flag value into its Router.
func ParseRoutePolicy(s string) (Router, error) {
	switch s {
	case "locality":
		return LocalityFirst{}, nil
	case "least-loaded":
		return LeastLoaded{}, nil
	case "weighted":
		return Weighted{}, nil
	default:
		return nil, fmt.Errorf("cluster: unknown routing policy %q (want locality|least-loaded|weighted)", s)
	}
}

// GlobalRequest is a request whose external arrivals enter at the cluster
// level and are routed to a datacenter per arrival. The request definition
// (chain, delivery probability) must be present — and is provisioned for —
// in every datacenter that may serve it; ID names that definition.
type GlobalRequest struct {
	ID model.RequestID
	// Rate is the Poisson arrival rate of the global flow, packets/s.
	// Ignored when Source is set.
	Rate float64
	// Source, when non-nil, replaces the Poisson process with a pull-based
	// arrival generator (e.g. a workload class source built by
	// workload.BuildSources), letting cluster flows carry diurnal or bursty
	// heavy-traffic processes. The source is consumed by the cluster driver
	// and must not be shared with another flow or simulator.
	Source workload.Source
	// Home is the index of the request's home datacenter: arrivals served
	// there enter immediately, arrivals routed elsewhere pay the WAN entry
	// hop.
	Home int
}
