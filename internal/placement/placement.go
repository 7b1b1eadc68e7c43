// Package placement implements the VNF chain placement (VNF-CP) algorithms
// of the paper's Section IV-A: the proposed BFDSU (Best Fit Decreasing using
// Smallest Used nodes with the largest probability) and the baselines it is
// evaluated against — FFD (First Fit Decreasing) and NAH (the chain-oriented
// Node Assignment Heuristic of Xia et al.) — plus additional classical
// packers (BFD, WFD, random) and an exact branch-and-bound optimum for small
// instances.
//
// All algorithms place each VNF's full bundle of M_f service instances on a
// single node (paper Eq. 2) subject to node capacities (Eq. 6), and report
// the iteration count the paper's Fig. 10 uses as execution cost.
package placement

import (
	"errors"
	"fmt"

	"nfvchain/internal/model"
)

// ErrInfeasible is returned when no feasible placement was found — either
// provably (a VNF exceeds every node's capacity, or total demand exceeds
// total capacity) or because a randomized search exhausted its restarts.
var ErrInfeasible = errors.New("placement: no feasible placement found")

// Result is the outcome of one placement run.
type Result struct {
	Placement *model.Placement
	// Iterations is the algorithm-specific execution-cost counter of the
	// paper's Fig. 10: stateless single-pass packers (FFD/BFD/WFD) report 1;
	// the stateful algorithms report their node-list evaluations — BFDSU one
	// per weighted placement decision across all restart passes, NAH one per
	// anchor selection plus one per co-placement attempt.
	Iterations int
}

// Algorithm is a VNF chain placement strategy.
type Algorithm interface {
	// Name returns the short algorithm identifier used in experiment output.
	Name() string
	// Place validates the problem once and places it as PlaceValid does;
	// every implementation is Run.
	Place(p *model.Problem) (*Result, error)
	// PlaceValid computes a feasible placement for p, which must have
	// passed Problem.Validate, or returns ErrInfeasible (possibly wrapped).
	PlaceValid(p *model.Problem) (*Result, error)
}

// Run is Algorithm.Place: it validates p and places it with alg.
func Run(alg Algorithm, p *model.Problem) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("placement: %w", err)
	}
	return alg.PlaceValid(p)
}

// Precheck rejects problems that provably admit no placement: a VNF bundle
// larger than the largest node, or aggregate demand beyond aggregate
// capacity. Passing Precheck does not guarantee feasibility. p must have
// passed Problem.Validate.
func Precheck(p *model.Problem) error {
	var maxCap float64
	for _, n := range p.Nodes {
		if n.Capacity > maxCap {
			maxCap = n.Capacity
		}
	}
	for _, f := range p.VNFs {
		if f.TotalDemand() > maxCap {
			return fmt.Errorf("placement: vnf %s total demand %v exceeds largest node capacity %v: %w",
				f.ID, f.TotalDemand(), maxCap, ErrInfeasible)
		}
	}
	if p.TotalDemand() > p.TotalCapacity() {
		return fmt.Errorf("placement: total demand %v exceeds total capacity %v: %w",
			p.TotalDemand(), p.TotalCapacity(), ErrInfeasible)
	}
	// Additional resources: each dimension must fit somewhere and in total.
	for dim := 0; dim < p.ExtraResources(); dim++ {
		var maxExtra, totalExtra, demandExtra float64
		for _, n := range p.Nodes {
			if n.Extras[dim] > maxExtra {
				maxExtra = n.Extras[dim]
			}
			totalExtra += n.Extras[dim]
		}
		for _, f := range p.VNFs {
			need := f.TotalExtras()[dim]
			demandExtra += need
			if need > maxExtra {
				return fmt.Errorf("placement: vnf %s extra resource %d demand %v exceeds largest node capacity %v: %w",
					f.ID, dim, need, maxExtra, ErrInfeasible)
			}
		}
		if demandExtra > totalExtra {
			return fmt.Errorf("placement: extra resource %d total demand %v exceeds total capacity %v: %w",
				dim, demandExtra, totalExtra, ErrInfeasible)
		}
	}
	return nil
}

// residualState tracks per-node remaining capacity during a packing run —
// the CPU dimension that drives packing decisions plus any additional
// resources, which act purely as feasibility constraints (the paper models
// memory/bandwidth "as additional constraints" on the CPU-bounded packing).
type residualState struct {
	problem  *model.Problem
	residual map[model.NodeID]float64
	extras   map[model.NodeID][]float64 // nil for CPU-only problems
	used     map[model.NodeID]bool
}

func newResidualState(p *model.Problem) *residualState {
	st := &residualState{
		problem:  p,
		residual: make(map[model.NodeID]float64, len(p.Nodes)),
		used:     make(map[model.NodeID]bool, len(p.Nodes)),
	}
	if p.ExtraResources() > 0 {
		st.extras = make(map[model.NodeID][]float64, len(p.Nodes))
	}
	for _, n := range p.Nodes {
		st.residual[n.ID] = n.Capacity
		if st.extras != nil {
			st.extras[n.ID] = append([]float64(nil), n.Extras...)
		}
	}
	return st
}

// place commits VNF f to node v.
func (st *residualState) place(pl *model.Placement, f model.VNF, v model.NodeID) {
	pl.Assign(f.ID, v)
	st.residual[v] -= f.TotalDemand()
	if st.extras != nil {
		row := st.extras[v]
		for i, e := range f.TotalExtras() {
			row[i] -= e
		}
	}
	st.used[v] = true
}

// fits reports whether node v can still host demand d (CPU only); callers
// placing a concrete VNF use fitsVNF, which also checks the additional
// resources.
func (st *residualState) fits(v model.NodeID, d float64) bool {
	return st.residual[v] >= d-1e-9
}

// fitsVNF reports whether node v can host the whole VNF bundle in every
// resource dimension.
func (st *residualState) fitsVNF(v model.NodeID, f model.VNF) bool {
	if !st.fits(v, f.TotalDemand()) {
		return false
	}
	if st.extras != nil {
		row := st.extras[v]
		for i, e := range f.TotalExtras() {
			if row[i] < e-1e-9 {
				return false
			}
		}
	}
	return true
}
