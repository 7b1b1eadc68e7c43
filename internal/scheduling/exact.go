package scheduling

import (
	"fmt"
)

// Exact computes a makespan-optimal partition by branch-and-bound, seeded
// with the LPT incumbent. Multi-way number partitioning is NP-hard (the
// paper cites Korf), so Exact guards its instance size; it exists to measure
// the optimality gap of RCKK and CGA on small instances.
type Exact struct {
	// MaxItems bounds the accepted item count (default 24).
	MaxItems int
	// MaxExpansions caps the search-tree size (default 10e6).
	MaxExpansions int
}

// Defaults for Exact's tractability guards.
const (
	DefaultExactMaxItems      = 24
	DefaultExactMaxExpansions = 10_000_000
)

// Name implements Partitioner.
func (e *Exact) Name() string { return "Exact" }

// Partition implements Partitioner.
func (e *Exact) Partition(items []Item, m int) ([]int, error) {
	if err := validate(items, m); err != nil {
		return nil, err
	}
	maxItems := e.MaxItems
	if maxItems <= 0 {
		maxItems = DefaultExactMaxItems
	}
	if len(items) > maxItems {
		return nil, fmt.Errorf("scheduling: exact search limited to %d items, got %d", maxItems, len(items))
	}
	maxExp := e.MaxExpansions
	if maxExp <= 0 {
		maxExp = DefaultExactMaxExpansions
	}
	n := len(items)
	assign := make([]int, n)
	if n == 0 || m == 1 {
		return assign, nil
	}
	order := WeightOrder(items, nil)
	greedyAssign(items, order, m, assign)
	s := newBranchSearch(items, order, m, assign)
	// Lower bound: max(total/m, heaviest item). Stop early when greedy hits it.
	var total, heaviest float64
	for _, it := range items {
		total += it.Weight
		if it.Weight > heaviest {
			heaviest = it.Weight
		}
	}
	s.lower = total / float64(m)
	if heaviest > s.lower {
		s.lower = heaviest
	}
	if s.bestSpan > s.lower+1e-12 {
		s.budget = maxExp
		s.run(0)
	}
	return assign, nil
}

var _ Partitioner = (*Exact)(nil)
