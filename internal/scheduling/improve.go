package scheduling

import (
	"fmt"
	"sort"

	"nfvchain/internal/model"
)

// Improve runs a deterministic move/swap local search on an assignment:
// while the makespan keeps dropping, it tries to move one item off the
// most-loaded instance onto any other instance, and failing that to swap an
// item of the most-loaded instance with a lighter item elsewhere. The result
// never has a larger makespan than the input. It is the scheduling analogue
// of placement.Improve — a polish pass usable after any Partitioner.
//
// maxRounds bounds the loop; 0 means DefaultImproveRounds. The input slice
// is not modified.
func Improve(items []Item, assign []int, m, maxRounds int) ([]int, error) {
	if err := validate(items, m); err != nil {
		return nil, err
	}
	if len(assign) != len(items) {
		return nil, fmt.Errorf("scheduling: assignment length %d != items %d", len(assign), len(items))
	}
	for i, k := range assign {
		if k < 0 || k >= m {
			return nil, fmt.Errorf("scheduling: item %d assigned to instance %d outside [0,%d)", i, k, m)
		}
	}
	// The copy and the weight order share one allocation.
	buf := make([]int, 2*len(items))
	cur := buf[:len(items):len(items)]
	copy(cur, assign)
	ImproveInPlace(items, WeightOrder(items, buf[len(items):]), cur, make([]float64, m), maxRounds)
	return cur, nil
}

// ImproveInPlace is Improve without the defensive copy and validation: it
// mutates assign directly and returns the number of improving rounds applied.
// Inputs must already be a valid assignment (every index in [0,m), m being
// len(loads)); byWeight is WeightOrder(items) and loads is scratch that
// ImproveInPlace overwrites. It allocates nothing: it is the inner-loop form
// the portfolio metaheuristics polish candidates with, each with its weight
// orders computed once. maxRounds <= 0 means DefaultImproveRounds.
func ImproveInPlace(items []Item, byWeight, assign []int, loads []float64, maxRounds int) int {
	if maxRounds <= 0 {
		maxRounds = DefaultImproveRounds
	}
	clear(loads)
	for i, it := range items {
		loads[assign[i]] += it.Weight
	}
	rounds := 0
	for ; rounds < maxRounds; rounds++ {
		if !improveOnce(items, byWeight, assign, loads) {
			break
		}
	}
	return rounds
}

// DefaultImproveRounds bounds the local search; each round strictly reduces
// the makespan, so convergence is fast in practice.
const DefaultImproveRounds = 1000

// improveOnce applies the first strictly-improving move or swap; false when
// the assignment is locally optimal.
func improveOnce(items []Item, byWeight, assign []int, loads []float64) bool {
	src := argmax(loads)
	span := loads[src]
	limit := span - 1e-12

	// Move: item i from src to the instance where the resulting pairwise
	// makespan is smallest.
	bestItem, bestDst := -1, -1
	bestNew := span
	for i, k := range assign {
		if k != src {
			continue
		}
		w := items[i].Weight
		if w == 0 {
			continue
		}
		for dst := range loads {
			if dst == src {
				continue
			}
			newMax := maxf(span-w, loads[dst]+w)
			if newMax < bestNew-1e-12 {
				bestNew, bestItem, bestDst = newMax, i, dst
			}
		}
	}
	if bestItem >= 0 {
		loads[src] -= items[bestItem].Weight
		loads[bestDst] += items[bestItem].Weight
		assign[bestItem] = bestDst
		return true
	}

	// Swap: exchange item i on src with a lighter item j elsewhere, the
	// first pair (i, j) in index order whose pairwise makespan
	// max(span−δ, loads[kj]+δ), δ = wi−wj, is below limit. That needs
	// loads[kj]+δ < limit, so — rounding being monotone and lo the least
	// load — lo+δ < limit evaluated the same way. That bound fails for
	// every j lighter than one it fails for, so the j that can pass are a
	// run of byWeight starting at the heaviest item lighter than wi, found
	// by binary search. The scan tests each j of the run as the full scan
	// would and keeps the smallest passing index, the j the full scan
	// meets first; an i with none is skipped.
	lo := loads[0]
	for _, l := range loads {
		lo = min(lo, l)
	}
	for i, ki := range assign {
		if ki != src {
			continue
		}
		wi := items[i].Weight
		run := sort.Search(len(byWeight), func(h int) bool { return items[byWeight[h]].Weight < wi })
		best := -1
		for _, j := range byWeight[run:] {
			delta := wi - items[j].Weight
			if !(lo+delta < limit) {
				break
			}
			kj := assign[j]
			if kj == src || (best >= 0 && j > best) {
				continue
			}
			if maxf(span-delta, loads[kj]+delta) < limit {
				best = j
			}
		}
		if best >= 0 {
			delta := wi - items[best].Weight
			kj := assign[best]
			loads[src] -= delta
			loads[kj] += delta
			assign[i], assign[best] = kj, src
			return true
		}
	}
	return false
}

// ImproveSchedule applies Improve to every VNF of an existing complete
// schedule and returns the polished schedule; per-VNF makespans never grow.
// R_f comes from the schedule's index, in request order.
func ImproveSchedule(p *model.Problem, s *model.Schedule) (*model.Schedule, error) {
	s = s.For(p)
	if err := s.Validate(p); err != nil {
		return nil, fmt.Errorf("scheduling: improve: %w", err)
	}
	out := s.Clone()
	ix := out.Index()
	for fi, f := range p.VNFs {
		users, slots := ix.Users(fi), ix.UserSlots(fi)
		if len(users) == 0 {
			continue
		}
		items, assign := make([]Item, len(users)), make([]int, len(users))
		for i, r := range users {
			items[i] = Item{ID: p.Requests[r].ID, Weight: p.Requests[r].EffectiveRate()}
			assign[i], _ = out.At(int(slots[i])) // Validate saw every slot assigned
		}
		better, err := Improve(items, assign, f.Instances, 0)
		if err != nil {
			return nil, err
		}
		for i, r := range users {
			out.AssignSlot(int(r), int(slots[i]), better[i])
		}
	}
	return out, nil
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
