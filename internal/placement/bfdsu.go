package placement

import (
	"fmt"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
)

// BFDSU is the paper's priority-driven weighted placement algorithm
// (Algorithm 1): Best Fit Decreasing using Smallest Used nodes with the
// largest probability.
//
// VNFs are placed from the most to the least resource-demanding. For each
// VNF the candidate set V_rst(f) is drawn from the nodes already in service
// (Used_list); only when none fits does the algorithm fall back to the spare
// nodes (Spare_list). Among candidates sorted by ascending residual capacity
// RST(v), the host is drawn with weight
//
//	P_rst(v) = 1 / (1 + RST(v) − D_f^sum),
//
// so the snuggest-fitting node is most likely but not certain — the
// randomization lets a restart escape dead ends a deterministic best-fit
// walks into. When some VNF fits nowhere the procedure goes "back to Begin"
// (a full restart).
//
// Iterations counts the weighted placement decisions taken across all
// passes (each decision re-sorts the candidate set and re-evaluates the
// weights — one iteration of the paper's Fig. 10 execution-cost metric, in
// which single-pass stateless FFD counts as 1 while the stateful algorithms
// count their per-VNF node-list evaluations).
type BFDSU struct {
	// MaxRestarts bounds the "go back to Begin" loop of Algorithm 1.
	// Zero means DefaultMaxRestarts.
	MaxRestarts int
	// Seed seeds the weighted draws; runs with equal seeds are identical.
	Seed uint64
}

// DefaultMaxRestarts bounds BFDSU's restart loop when the caller does not
// choose a limit.
const DefaultMaxRestarts = 1000

// Name implements Algorithm.
func (b *BFDSU) Name() string { return "BFDSU" }

// Place implements Algorithm.
func (b *BFDSU) Place(p *model.Problem) (*Result, error) { return Run(b, p) }

// PlaceValid implements Algorithm.
func (b *BFDSU) PlaceValid(p *model.Problem) (*Result, error) {
	if err := Precheck(p); err != nil {
		return nil, err
	}
	maxRestarts := b.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = DefaultMaxRestarts
	}
	stream := rng.Derive(b.Seed, "bfdsu")
	sorted := p.SortedVNFsByDemand()

	iterations := 0
	for attempt := 1; attempt <= maxRestarts; attempt++ {
		pl, ok := b.onePass(p, sorted, stream, &iterations)
		if ok {
			return &Result{Placement: pl, Iterations: iterations}, nil
		}
	}
	return nil, fmt.Errorf("placement: BFDSU exhausted %d restarts: %w", maxRestarts, ErrInfeasible)
}

// onePass runs one full placement pass; ok is false when some VNF fit
// nowhere and the caller must restart. iterations accrues one per weighted
// placement decision.
func (b *BFDSU) onePass(p *model.Problem, sorted []model.VNF, stream *rng.Stream, iterations *int) (*model.Placement, bool) {
	st := newResidualState(p)
	pl := model.NewPlacement()
	for _, f := range sorted {
		*iterations++
		demand := f.TotalDemand()
		candidates := b.candidates(p, st, f, true) // Used_list first
		if len(candidates) == 0 {
			candidates = b.candidates(p, st, f, false) // then Spare_list
		}
		if len(candidates) == 0 {
			return nil, false // back to Begin
		}
		weights := make([]float64, len(candidates))
		for i, v := range candidates {
			weights[i] = 1 / (1 + st.residual[v] - demand)
		}
		choice := stream.WeightedIndex(weights)
		if choice < 0 {
			return nil, false
		}
		st.place(pl, f, candidates[choice])
	}
	return pl, true
}

// candidates returns the feasible nodes from the used (or spare) list,
// sorted by ascending residual capacity with id tie-breaks — the paper's
// V_rst(f) ordering. Feasibility covers CPU and every additional resource.
func (b *BFDSU) candidates(p *model.Problem, st *residualState, f model.VNF, fromUsed bool) []model.NodeID {
	var out []model.NodeID
	for _, n := range p.Nodes {
		if st.used[n.ID] != fromUsed {
			continue
		}
		if st.fitsVNF(n.ID, f) {
			out = append(out, n.ID)
		}
	}
	sortNodesByResidual(out, st)
	return out
}

// sortNodesByResidual orders ids by ascending residual, ties by id.
func sortNodesByResidual(ids []model.NodeID, st *residualState) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0; j-- {
			a, b := ids[j-1], ids[j]
			if st.residual[a] < st.residual[b] || (st.residual[a] == st.residual[b] && a <= b) {
				break
			}
			ids[j-1], ids[j] = ids[j], ids[j-1]
		}
	}
}

var _ Algorithm = (*BFDSU)(nil)
