package placement

import (
	"fmt"
	"sort"

	"nfvchain/internal/model"
)

// NAH is the Node Assignment Heuristic of Xia et al. ("Network function
// placement for NFV chaining in packet/optical datacenters", JLT 2015), the
// chain-oriented baseline of the paper's evaluation. For each service chain
// in turn it anchors the chain's most resource-demanding unplaced VNF on the
// node with the *largest* remaining capacity, then packs as many of that
// chain's remaining VNFs as fit onto the same node; leftover VNFs of the
// chain trigger further anchor rounds. VNFs shared between chains are placed
// only once (first chain wins). NAH keeps no used/spare distinction.
//
// Iterations counts node-list evaluations: one per anchor selection (a scan
// of all nodes) plus one per co-placement fit attempt on the anchor. This is
// the execution-cost measure under which the paper reports NAH ≈ 3× BFDSU.
type NAH struct{}

// Name implements Algorithm.
func (NAH) Name() string { return "NAH" }

// Place implements Algorithm.
func (a NAH) Place(p *model.Problem) (*Result, error) { return Run(a, p) }

// PlaceValid implements Algorithm.
func (NAH) PlaceValid(p *model.Problem) (*Result, error) {
	if err := Precheck(p); err != nil {
		return nil, err
	}
	st := newResidualState(p)
	pl := model.NewPlacement()
	iterations := 0

	place := func(chain []model.VNFID) error {
		// Unplaced VNFs of this chain, most demanding first.
		var pending []model.VNF
		for _, fid := range chain {
			if _, done := pl.Node(fid); done {
				continue
			}
			f, ok := p.VNF(fid)
			if !ok {
				return fmt.Errorf("placement: NAH: undefined vnf %s", fid)
			}
			pending = append(pending, f)
		}
		sort.SliceStable(pending, func(i, j int) bool {
			di, dj := pending[i].TotalDemand(), pending[j].TotalDemand()
			if di != dj {
				return di > dj
			}
			return pending[i].ID < pending[j].ID
		})
		for len(pending) > 0 {
			iterations++
			anchor := largestResidualNode(p, st)
			if anchor == "" || !st.fitsVNF(anchor, pending[0]) {
				return fmt.Errorf("placement: NAH cannot place vnf %s: %w", pending[0].ID, ErrInfeasible)
			}
			st.place(pl, pending[0], anchor)
			rest := pending[1:]
			pending = pending[:0]
			for _, f := range rest {
				iterations++ // co-placement fit attempt on the anchor
				if st.fitsVNF(anchor, f) {
					st.place(pl, f, anchor)
				} else {
					pending = append(pending, f)
				}
			}
		}
		return nil
	}

	for _, r := range p.Requests {
		if err := place(r.Chain); err != nil {
			return nil, err
		}
	}
	// VNFs used by no request still must be placed (Eq. 2); treat them as
	// one synthetic chain, matching the paper's "place every VNF" contract.
	var orphans []model.VNFID
	for _, f := range p.VNFs {
		if _, done := pl.Node(f.ID); !done {
			orphans = append(orphans, f.ID)
		}
	}
	if len(orphans) > 0 {
		if err := place(orphans); err != nil {
			return nil, err
		}
	}
	return &Result{Placement: pl, Iterations: iterations}, nil
}

// largestResidualNode returns the node with maximum remaining capacity
// (ties by id), or "" for an empty problem.
func largestResidualNode(p *model.Problem, st *residualState) model.NodeID {
	best := model.NodeID("")
	bestRes := -1.0
	for _, n := range p.Nodes {
		res := st.residual[n.ID]
		if res > bestRes || (res == bestRes && (best == "" || n.ID < best)) {
			best, bestRes = n.ID, res
		}
	}
	return best
}

var _ Algorithm = NAH{}
