// Package model defines the domain types shared by every nfvchain subsystem:
// VNFs, computing nodes, requests with their chains, placements of VNFs onto
// nodes, and schedules of requests onto service instances.
//
// The vocabulary follows the ICDCS'17 paper "Joint Optimization of Chain
// Placement and Request Scheduling for Network Function Virtualization":
//
//   - A VNF f has M_f co-located service instances, each demanding D_f
//     resource units and serving packets at an exponential rate µ_f.
//   - A computing node v has a CPU-bounded capacity A_v in the same units.
//   - A request r emits a Poisson packet stream at rate λ_r and must
//     traverse an ordered chain of VNFs; packets are delivered correctly
//     with probability P_r, and lost packets are retransmitted, inflating
//     the effective arrival rate to λ_r / P_r (Eq. 7).
package model

import (
	"errors"
	"fmt"
	"sort"
)

// VNFID identifies a virtual network function.
type VNFID string

// NodeID identifies a computing node.
type NodeID string

// RequestID identifies a request (an end-to-end flow with a VNF chain).
type RequestID string

// VNF is a virtual network function together with its deployment sizing.
// All M_f service instances of a VNF are co-located on a single computing
// node (paper Eq. 2); replicas on other nodes are modeled as distinct VNFs.
type VNF struct {
	ID          VNFID   `json:"id"`
	Name        string  `json:"name,omitempty"`
	Category    string  `json:"category,omitempty"`
	Instances   int     `json:"instances"`   // M_f ≥ 1
	Demand      float64 `json:"demand"`      // D_f, resource units per instance
	ServiceRate float64 `json:"serviceRate"` // µ_f, packets/s per instance
	// Extras holds per-instance demands for additional resources (memory,
	// bandwidth, …). The paper treats CPU as the bottleneck and models
	// other resources "as additional constraints": placement optimizes on
	// Demand and merely respects Extras. Length must match the problem's
	// extra-resource dimensionality (empty = CPU-only).
	Extras []float64 `json:"extras,omitempty"`
}

// TotalDemand returns D_f^sum = M_f · D_f, the resource footprint the VNF
// occupies on whichever node hosts it.
func (f VNF) TotalDemand() float64 {
	return float64(f.Instances) * f.Demand
}

// TotalExtras returns the VNF's whole-bundle demand for each additional
// resource: M_f · Extras[i].
func (f VNF) TotalExtras() []float64 {
	if len(f.Extras) == 0 {
		return nil
	}
	out := make([]float64, len(f.Extras))
	for i, e := range f.Extras {
		out[i] = float64(f.Instances) * e
	}
	return out
}

// Validate reports the first structural problem with the VNF definition.
func (f VNF) Validate() error {
	switch {
	case f.ID == "":
		return errors.New("vnf: empty id")
	case f.Instances < 1:
		return fmt.Errorf("vnf %s: instances %d < 1", f.ID, f.Instances)
	case f.Demand < 0:
		return fmt.Errorf("vnf %s: negative demand %v", f.ID, f.Demand)
	case f.ServiceRate <= 0:
		return fmt.Errorf("vnf %s: service rate %v must be positive", f.ID, f.ServiceRate)
	}
	for i, e := range f.Extras {
		if e < 0 {
			return fmt.Errorf("vnf %s: negative extra demand %v at dimension %d", f.ID, e, i)
		}
	}
	return nil
}

// Node is a computing node (commodity server) of the datacenter network.
type Node struct {
	ID       NodeID  `json:"id"`
	Name     string  `json:"name,omitempty"`
	Capacity float64 `json:"capacity"` // A_v, resource units
	// Extras holds capacities for additional resources, index-aligned with
	// each VNF's Extras (empty = CPU-only).
	Extras []float64 `json:"extras,omitempty"`
}

// Validate reports the first structural problem with the node definition.
func (n Node) Validate() error {
	switch {
	case n.ID == "":
		return errors.New("node: empty id")
	case n.Capacity <= 0:
		return fmt.Errorf("node %s: capacity %v must be positive", n.ID, n.Capacity)
	}
	for i, e := range n.Extras {
		if e <= 0 {
			return fmt.Errorf("node %s: extra capacity %v at dimension %d must be positive", n.ID, e, i)
		}
	}
	return nil
}

// Request is a flow that must traverse an ordered chain of VNFs.
type Request struct {
	ID           RequestID `json:"id"`
	Chain        []VNFID   `json:"chain"`        // ordered; at most MaxChainLength entries
	Rate         float64   `json:"rate"`         // λ_r, packets/s external arrival rate
	DeliveryProb float64   `json:"deliveryProb"` // P_r ∈ (0,1]; packet loss rate is 1−P_r
}

// MaxChainLength is the longest chain the paper's workloads use.
const MaxChainLength = 6

// EffectiveRate returns λ_r / P_r, the retransmission-inflated arrival rate a
// request imposes on every service instance it is assigned to (Eq. 7).
func (r Request) EffectiveRate() float64 {
	return r.Rate / r.DeliveryProb
}

// Uses reports whether the request's chain contains VNF f (the paper's
// indicator U_r^f).
func (r Request) Uses(f VNFID) bool {
	for _, g := range r.Chain {
		if g == f {
			return true
		}
	}
	return false
}

// Validate reports the first structural problem with the request definition.
func (r Request) Validate() error {
	switch {
	case r.ID == "":
		return errors.New("request: empty id")
	case len(r.Chain) == 0:
		return fmt.Errorf("request %s: empty chain", r.ID)
	case r.Rate <= 0:
		return fmt.Errorf("request %s: rate %v must be positive", r.ID, r.Rate)
	case r.DeliveryProb <= 0 || r.DeliveryProb > 1:
		return fmt.Errorf("request %s: delivery probability %v outside (0,1]", r.ID, r.DeliveryProb)
	}
	seen := make(map[VNFID]struct{}, len(r.Chain))
	for _, f := range r.Chain {
		if f == "" {
			return fmt.Errorf("request %s: empty vnf id in chain", r.ID)
		}
		if _, dup := seen[f]; dup {
			return fmt.Errorf("request %s: vnf %s appears twice in chain", r.ID, f)
		}
		seen[f] = struct{}{}
	}
	return nil
}

// Problem bundles a complete placement-and-scheduling instance.
type Problem struct {
	Nodes    []Node    `json:"nodes"`
	VNFs     []VNF     `json:"vnfs"`
	Requests []Request `json:"requests"`
}

// Validate checks every component plus cross-references: unique IDs, chains
// referring to defined VNFs, and M_f not exceeding the number of requests
// that use f when requests are present (paper Eq. 3 permits M_f ≤ Σ U_r^f).
func (p *Problem) Validate() error {
	if len(p.Nodes) == 0 {
		return errors.New("problem: no nodes")
	}
	if len(p.VNFs) == 0 {
		return errors.New("problem: no vnfs")
	}
	nodeIDs := make(map[NodeID]struct{}, len(p.Nodes))
	for _, n := range p.Nodes {
		if err := n.Validate(); err != nil {
			return err
		}
		if _, dup := nodeIDs[n.ID]; dup {
			return fmt.Errorf("problem: duplicate node id %s", n.ID)
		}
		nodeIDs[n.ID] = struct{}{}
	}
	vnfIDs := make(map[VNFID]struct{}, len(p.VNFs))
	for _, f := range p.VNFs {
		if err := f.Validate(); err != nil {
			return err
		}
		if _, dup := vnfIDs[f.ID]; dup {
			return fmt.Errorf("problem: duplicate vnf id %s", f.ID)
		}
		vnfIDs[f.ID] = struct{}{}
	}
	// Extra-resource dimensionality must be uniform across nodes and VNFs.
	dims := len(p.Nodes[0].Extras)
	for _, n := range p.Nodes {
		if len(n.Extras) != dims {
			return fmt.Errorf("problem: node %s has %d extra resources, want %d", n.ID, len(n.Extras), dims)
		}
	}
	for _, f := range p.VNFs {
		if len(f.Extras) != dims {
			return fmt.Errorf("problem: vnf %s has %d extra resources, want %d", f.ID, len(f.Extras), dims)
		}
	}
	reqIDs := make(map[RequestID]struct{}, len(p.Requests))
	for _, r := range p.Requests {
		if err := r.Validate(); err != nil {
			return err
		}
		if _, dup := reqIDs[r.ID]; dup {
			return fmt.Errorf("problem: duplicate request id %s", r.ID)
		}
		reqIDs[r.ID] = struct{}{}
		for _, f := range r.Chain {
			if _, ok := vnfIDs[f]; !ok {
				return fmt.Errorf("problem: request %s references undefined vnf %s", r.ID, f)
			}
		}
	}
	return nil
}

// VNF returns the VNF with the given id, or false when undefined.
func (p *Problem) VNF(id VNFID) (VNF, bool) {
	for _, f := range p.VNFs {
		if f.ID == id {
			return f, true
		}
	}
	return VNF{}, false
}

// Node returns the node with the given id, or false when undefined.
func (p *Problem) Node(id NodeID) (Node, bool) {
	for _, n := range p.Nodes {
		if n.ID == id {
			return n, true
		}
	}
	return Node{}, false
}

// TotalDemand returns Σ_f M_f·D_f, the aggregate resource footprint of every
// VNF in the problem.
func (p *Problem) TotalDemand() float64 {
	var sum float64
	for _, f := range p.VNFs {
		sum += f.TotalDemand()
	}
	return sum
}

// TotalCapacity returns Σ_v A_v.
func (p *Problem) TotalCapacity() float64 {
	var sum float64
	for _, n := range p.Nodes {
		sum += n.Capacity
	}
	return sum
}

// SortedVNFsByDemand returns a copy of p.VNFs sorted by total demand in
// descending order, breaking ties by id for determinism. This is the scan
// order of every decreasing-fit placement algorithm.
func (p *Problem) SortedVNFsByDemand() []VNF {
	out := make([]VNF, len(p.VNFs))
	copy(out, p.VNFs)
	sort.SliceStable(out, func(i, j int) bool {
		di, dj := out[i].TotalDemand(), out[j].TotalDemand()
		if di != dj {
			return di > dj
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ExtraResources returns the number of additional resource dimensions
// (0 for CPU-only problems).
func (p *Problem) ExtraResources() int {
	if len(p.Nodes) == 0 {
		return 0
	}
	return len(p.Nodes[0].Extras)
}

// Clone returns a deep copy of the problem.
func (p *Problem) Clone() *Problem {
	q := &Problem{
		Nodes:    make([]Node, len(p.Nodes)),
		VNFs:     make([]VNF, len(p.VNFs)),
		Requests: make([]Request, len(p.Requests)),
	}
	for i, n := range p.Nodes {
		nn := n
		nn.Extras = append([]float64(nil), n.Extras...)
		q.Nodes[i] = nn
	}
	for i, f := range p.VNFs {
		ff := f
		ff.Extras = append([]float64(nil), f.Extras...)
		q.VNFs[i] = ff
	}
	for i, r := range p.Requests {
		rr := r
		rr.Chain = append([]VNFID(nil), r.Chain...)
		q.Requests[i] = rr
	}
	return q
}
