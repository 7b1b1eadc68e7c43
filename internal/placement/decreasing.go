package placement

import (
	"fmt"
	"sort"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
)

// FFD is First Fit Decreasing, the classical bin-packing baseline the paper
// compares against: VNFs in descending demand order each go to the first
// node (in the problem's node order) with room. FFD keeps no used/spare
// distinction and is fully deterministic, so Iterations is always 1.
type FFD struct{}

// Name implements Algorithm.
func (FFD) Name() string { return "FFD" }

// Place implements Algorithm.
func (a FFD) Place(p *model.Problem) (*Result, error) { return Run(a, p) }

// PlaceValid implements Algorithm.
func (FFD) PlaceValid(p *model.Problem) (*Result, error) {
	if err := Precheck(p); err != nil {
		return nil, err
	}
	st := newResidualState(p)
	pl := model.NewPlacement()
	for _, f := range p.SortedVNFsByDemand() {
		placed := false
		for _, n := range p.Nodes {
			if st.fitsVNF(n.ID, f) {
				st.place(pl, f, n.ID)
				placed = true
				break
			}
		}
		if !placed {
			return nil, fmt.Errorf("placement: FFD cannot place vnf %s: %w", f.ID, ErrInfeasible)
		}
	}
	return &Result{Placement: pl, Iterations: 1}, nil
}

// BFD is deterministic Best Fit Decreasing: each VNF goes to the feasible
// node with the smallest residual capacity (ties by node id). It is the
// derandomized core of BFDSU, included as an ablation: comparing the two
// isolates the value of BFDSU's weighted randomization and used-first rule.
type BFD struct{}

// Name implements Algorithm.
func (BFD) Name() string { return "BFD" }

// Place implements Algorithm.
func (a BFD) Place(p *model.Problem) (*Result, error) { return Run(a, p) }

// PlaceValid implements Algorithm.
func (BFD) PlaceValid(p *model.Problem) (*Result, error) {
	return fitDecreasing(p, "BFD", func(res, best float64) bool { return res < best })
}

// WFD is Worst Fit Decreasing: each VNF goes to the feasible node with the
// largest residual capacity. It spreads load thin — the utilization
// anti-pattern the paper's Objective 1 argues against — and serves as a
// lower-bound baseline in the ablation benches.
type WFD struct{}

// Name implements Algorithm.
func (WFD) Name() string { return "WFD" }

// Place implements Algorithm.
func (a WFD) Place(p *model.Problem) (*Result, error) { return Run(a, p) }

// PlaceValid implements Algorithm.
func (WFD) PlaceValid(p *model.Problem) (*Result, error) {
	return fitDecreasing(p, "WFD", func(res, best float64) bool { return res > best })
}

// fitDecreasing is the shared scan of BFD/WFD with a pluggable preference.
func fitDecreasing(p *model.Problem, name string, better func(res, best float64) bool) (*Result, error) {
	if err := Precheck(p); err != nil {
		return nil, err
	}
	st := newResidualState(p)
	pl := model.NewPlacement()
	for _, f := range p.SortedVNFsByDemand() {
		bestID := model.NodeID("")
		bestRes := 0.0
		for _, n := range p.Nodes {
			if !st.fitsVNF(n.ID, f) {
				continue
			}
			res := st.residual[n.ID]
			if bestID == "" || better(res, bestRes) || (res == bestRes && n.ID < bestID) {
				bestID, bestRes = n.ID, res
			}
		}
		if bestID == "" {
			return nil, fmt.Errorf("placement: %s cannot place vnf %s: %w", name, f.ID, ErrInfeasible)
		}
		st.place(pl, f, bestID)
	}
	return &Result{Placement: pl, Iterations: 1}, nil
}

// Random places each VNF on a uniformly random feasible node — the naive
// baseline for ablation benches. Iterations reports 1 + restarts, as for
// BFDSU.
type Random struct {
	MaxRestarts int
	Seed        uint64
}

// Name implements Algorithm.
func (r *Random) Name() string { return "Random" }

// Place implements Algorithm.
func (r *Random) Place(p *model.Problem) (*Result, error) { return Run(r, p) }

// PlaceValid implements Algorithm.
func (r *Random) PlaceValid(p *model.Problem) (*Result, error) {
	if err := Precheck(p); err != nil {
		return nil, err
	}
	maxRestarts := r.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = DefaultMaxRestarts
	}
	stream := rng.Derive(r.Seed, "random-placement")
	sorted := p.SortedVNFsByDemand()
	for attempt := 1; attempt <= maxRestarts; attempt++ {
		st := newResidualState(p)
		pl := model.NewPlacement()
		ok := true
		for _, f := range sorted {
			var candidates []model.NodeID
			for _, n := range p.Nodes {
				if st.fitsVNF(n.ID, f) {
					candidates = append(candidates, n.ID)
				}
			}
			if len(candidates) == 0 {
				ok = false
				break
			}
			sort.Slice(candidates, func(i, j int) bool { return candidates[i] < candidates[j] })
			st.place(pl, f, candidates[stream.IntN(len(candidates))])
		}
		if ok {
			return &Result{Placement: pl, Iterations: attempt}, nil
		}
	}
	return nil, fmt.Errorf("placement: Random exhausted %d restarts: %w", maxRestarts, ErrInfeasible)
}

var (
	_ Algorithm = FFD{}
	_ Algorithm = BFD{}
	_ Algorithm = WFD{}
	_ Algorithm = (*Random)(nil)
)
