package scheduling

import (
	"cmp"
	"math"
	"slices"
)

// CGA is the paper's baseline scheduler: the greedy descent of Korf's
// Complete Greedy Algorithm, better known as LPT (Longest Processing Time).
// Items are taken in descending weight order and each goes to the instance
// with the currently smallest load. The paper notes the complete search
// "does not scale as the number of instances increases", so the first
// (greedy) descent is the operative baseline; set MaxNodes > 0 to let CGA
// keep searching the branch-and-bound tree for a better makespan within
// that node budget.
type CGA struct {
	// MaxNodes bounds the complete-search extension; 0 means pure greedy.
	MaxNodes int
	// ArrivalOrder processes items as given instead of sorting them by
	// decreasing weight first. Korf's CGA sorts; the CGA numbers the paper
	// reports (enhancement ratios of ~42% shrinking to ~2%, persistent job
	// rejection under load) are only reachable by a greedy that does not —
	// arrival-order greedy keeps an O(E[λ]) imbalance at any request count,
	// while the LPT sort balances almost perfectly for n ≫ m. The
	// experiment harness uses this mode for the paper-faithful baseline;
	// see EXPERIMENTS.md.
	ArrivalOrder bool
}

// Name implements Partitioner.
func (c CGA) Name() string { return "CGA" }

// Partition implements Partitioner.
func (c CGA) Partition(items []Item, m int) ([]int, error) {
	if err := validate(items, m); err != nil {
		return nil, err
	}
	n := len(items)
	assign := make([]int, n)
	if n == 0 || m == 1 {
		return assign, nil
	}
	var order []int
	if c.ArrivalOrder {
		order = make([]int, n)
		for i := range order {
			order[i] = i
		}
	} else {
		order = WeightOrder(items, nil)
	}

	greedyAssign(items, order, m, assign)
	if c.MaxNodes > 0 {
		s := newBranchSearch(items, order, m, assign)
		s.lower, s.budget = math.Inf(-1), c.MaxNodes
		s.run(0)
	}
	return assign, nil
}

// greedyAssign is the LPT descent: each item (heaviest first) goes to the
// least-loaded instance. assign is indexed like items.
func greedyAssign(items []Item, order []int, m int, assign []int) {
	loads := make([]float64, m)
	for _, idx := range order {
		k := 0
		for j := 1; j < m; j++ {
			if loads[j] < loads[k] {
				k = j
			}
		}
		loads[k] += items[idx].Weight
		assign[idx] = k
	}
}

// branchSearch completes the LPT descent depth-first for CGA (within a node
// budget) and Exact (which also stops once the incumbent meets a lower
// bound). It assigns order[depth:] in increasing-load order, pruning
// branches whose makespan already meets the incumbent and skipping
// duplicate loads (Korf's symmetry rule). cur and best are indexed like
// items; best starts as the greedy incumbent and ends as the best found.
type branchSearch struct {
	items     []Item
	order     []int
	m         int
	loads     []float64
	cur, best []int
	bestSpan  float64
	lower     float64
	budget    int
	targets   []int // depth d's instance order is targets[d·m : (d+1)·m]
}

// newBranchSearch starts a search from the incumbent best.
func newBranchSearch(items []Item, order []int, m int, best []int) *branchSearch {
	return &branchSearch{
		items:    items,
		order:    order,
		m:        m,
		loads:    make([]float64, m),
		cur:      append([]int(nil), best...),
		best:     best,
		bestSpan: Makespan(Loads(items, best, m)),
		targets:  make([]int, len(order)*m),
	}
}

func (s *branchSearch) run(depth int) {
	if s.budget <= 0 || s.bestSpan <= s.lower+1e-12 {
		return
	}
	s.budget--
	if depth == len(s.order) {
		if span := Makespan(s.loads); span < s.bestSpan {
			s.bestSpan = span
			copy(s.best, s.cur)
		}
		return
	}
	idx := s.order[depth]
	w := s.items[idx].Weight
	loads := s.loads
	targets := s.targets[depth*s.m : (depth+1)*s.m]
	for k := range targets {
		targets[k] = k
	}
	slices.SortStableFunc(targets, func(a, b int) int { return cmp.Compare(loads[a], loads[b]) })
	var lastLoad float64
	first := true
	for _, k := range targets {
		if !first && loads[k] == lastLoad {
			continue // equal-load instances are symmetric
		}
		first, lastLoad = false, loads[k]
		if loads[k]+w >= s.bestSpan {
			continue // cannot beat the incumbent
		}
		loads[k] += w
		s.cur[idx] = k
		s.run(depth + 1)
		loads[k] -= w
	}
}

var _ Partitioner = CGA{}
