package model

import (
	"fmt"
	"slices"
	"sort"
)

// Placement maps every VNF to the computing node hosting all of its service
// instances (the paper's x_v^f with Σ_v x_v^f = 1, Eq. 2).
type Placement struct {
	NodeOf map[VNFID]NodeID `json:"nodeOf"`
}

// NewPlacement returns an empty placement.
func NewPlacement() *Placement {
	return &Placement{NodeOf: make(map[VNFID]NodeID)}
}

// Clone returns a deep copy of the placement.
func (pl *Placement) Clone() *Placement {
	out := &Placement{NodeOf: make(map[VNFID]NodeID, len(pl.NodeOf))}
	for f, v := range pl.NodeOf {
		out.NodeOf[f] = v
	}
	return out
}

// Assign places VNF f on node v, replacing any earlier assignment.
func (pl *Placement) Assign(f VNFID, v NodeID) {
	pl.NodeOf[f] = v
}

// Node returns the node hosting f, or false when f is unplaced.
func (pl *Placement) Node(f VNFID) (NodeID, bool) {
	v, ok := pl.NodeOf[f]
	return v, ok
}

// UsedNodes returns the ids of nodes hosting at least one VNF (the paper's
// y_v = 1 set), sorted for determinism. It sorts and deduplicates a slice
// rather than filling a set: the allocations of a map filled in iteration
// order vary from run to run, and every iteration-budgeted benchmark that
// places or polishes would inherit that jitter.
func (pl *Placement) UsedNodes() []NodeID {
	out := make([]NodeID, 0, len(pl.NodeOf))
	for _, v := range pl.NodeOf {
		out = append(out, v)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// VNFsOn returns the ids of VNFs placed on node v, sorted for determinism.
func (pl *Placement) VNFsOn(v NodeID) []VNFID {
	var out []VNFID
	for f, w := range pl.NodeOf {
		if w == v {
			out = append(out, f)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Load returns the resource units consumed on each node:
// load(v) = Σ_f x_v^f · M_f · D_f. Accumulation follows the problem's VNF
// order so floating-point sums are deterministic.
func (pl *Placement) Load(p *Problem) map[NodeID]float64 {
	load := make(map[NodeID]float64)
	for _, vnf := range p.VNFs {
		if v, ok := pl.NodeOf[vnf.ID]; ok {
			load[v] += vnf.TotalDemand()
		}
	}
	return load
}

// ExtrasLoad returns the per-node consumption of each additional resource:
// extrasLoad(v)[i] = Σ_f x_v^f · M_f · Extras_f[i]. Nodes with no load are
// absent. Returns nil for CPU-only problems.
func (pl *Placement) ExtrasLoad(p *Problem) map[NodeID][]float64 {
	dims := p.ExtraResources()
	if dims == 0 {
		return nil
	}
	load := make(map[NodeID][]float64)
	for _, vnf := range p.VNFs {
		v, ok := pl.NodeOf[vnf.ID]
		if !ok {
			continue
		}
		row := load[v]
		if row == nil {
			row = make([]float64, dims)
			load[v] = row
		}
		for i, e := range vnf.TotalExtras() {
			row[i] += e
		}
	}
	return load
}

// Residual returns RST(v) = A_v − load(v) for every node in the problem,
// including unused nodes (whose residual equals their full capacity).
func (pl *Placement) Residual(p *Problem) map[NodeID]float64 {
	load := pl.Load(p)
	rst := make(map[NodeID]float64, len(p.Nodes))
	for _, n := range p.Nodes {
		rst[n.ID] = n.Capacity - load[n.ID]
	}
	return rst
}

// Validate checks the placement against the problem: every VNF placed exactly
// once on a defined node, and no node over capacity (Eq. 6). A small epsilon
// absorbs floating-point accumulation.
func (pl *Placement) Validate(p *Problem) error {
	const eps = 1e-9
	for _, f := range p.VNFs {
		if _, ok := pl.NodeOf[f.ID]; !ok {
			return fmt.Errorf("placement: vnf %s unplaced", f.ID)
		}
	}
	for f, v := range pl.NodeOf {
		if _, ok := p.VNF(f); !ok {
			return fmt.Errorf("placement: unknown vnf %s", f)
		}
		if _, ok := p.Node(v); !ok {
			return fmt.Errorf("placement: vnf %s on unknown node %s", f, v)
		}
	}
	for v, used := range pl.Load(p) {
		node, _ := p.Node(v)
		if used > node.Capacity+eps {
			return fmt.Errorf("placement: node %s over capacity: %v > %v", v, used, node.Capacity)
		}
	}
	for v, extras := range pl.ExtrasLoad(p) {
		node, _ := p.Node(v)
		for i, used := range extras {
			if used > node.Extras[i]+eps {
				return fmt.Errorf("placement: node %s over extra resource %d: %v > %v", v, i, used, node.Extras[i])
			}
		}
	}
	return nil
}

// NodesInService returns Σ_v y_v, the objective of Eq. 14.
func (pl *Placement) NodesInService() int {
	return len(pl.UsedNodes())
}

// AverageUtilization returns the paper's Objective 1 value (Eq. 13): the mean
// of load(v)/A_v over nodes in service. It returns 0 for an empty placement.
func (pl *Placement) AverageUtilization(p *Problem) float64 {
	load := pl.Load(p)
	if len(load) == 0 {
		return 0
	}
	// Sum in node order for deterministic floating-point results.
	var sum float64
	for _, node := range p.Nodes {
		used, ok := load[node.ID]
		if !ok || node.Capacity == 0 {
			continue
		}
		sum += used / node.Capacity
	}
	return sum / float64(len(load))
}

// ResourceOccupation returns Σ_{v used} A_v, the total capacity of all nodes
// in service (the Fig. 9 metric): capacity committed whether or not filled.
func (pl *Placement) ResourceOccupation(p *Problem) float64 {
	var sum float64
	for _, v := range pl.UsedNodes() {
		node, ok := p.Node(v)
		if !ok {
			continue
		}
		sum += node.Capacity
	}
	return sum
}

// Traverses reports whether request r visits node v under this placement
// (the paper's η_v^r, Eq. 4).
func (pl *Placement) Traverses(r Request, v NodeID) bool {
	for _, f := range r.Chain {
		if w, ok := pl.NodeOf[f]; ok && w == v {
			return true
		}
	}
	return false
}

// NodeSpan returns Σ_v η_v^r: the number of distinct nodes request r visits.
// The Eq. 16 link-latency term charges L per hop, i.e. (NodeSpan−1)·L.
func (pl *Placement) NodeSpan(r Request) int {
	set := make(map[NodeID]struct{}, len(r.Chain))
	for _, f := range r.Chain {
		if v, ok := pl.NodeOf[f]; ok {
			set[v] = struct{}{}
		}
	}
	return len(set)
}
