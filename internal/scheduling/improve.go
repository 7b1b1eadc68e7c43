package scheduling

import (
	"fmt"

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
	cur := append([]int(nil), assign...)
	ImproveInPlace(items, cur, m, maxRounds)
	return cur, nil
}

// ImproveInPlace is Improve without the defensive copy and validation: it
// mutates assign directly and returns the number of improving rounds applied.
// Inputs must already be a valid assignment (every index in [0,m)); it is the
// allocation-lean inner-loop form the portfolio metaheuristics polish
// candidates with. maxRounds <= 0 means DefaultImproveRounds.
func ImproveInPlace(items []Item, assign []int, m, maxRounds int) int {
	if maxRounds <= 0 {
		maxRounds = DefaultImproveRounds
	}
	loads := Loads(items, assign, m)
	rounds := 0
	for ; rounds < maxRounds; rounds++ {
		if !improveOnce(items, assign, loads) {
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
func improveOnce(items []Item, assign []int, loads []float64) bool {
	src := argmax(loads)
	span := loads[src]

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

	// Swap: exchange item i on src with lighter item j elsewhere.
	for i, ki := range assign {
		if ki != src {
			continue
		}
		wi := items[i].Weight
		for j, kj := range assign {
			if kj == src {
				continue
			}
			wj := items[j].Weight
			if wj >= wi {
				continue
			}
			delta := wi - wj
			newMax := maxf(span-delta, loads[kj]+delta)
			if newMax < span-1e-12 {
				loads[src] -= delta
				loads[kj] += delta
				assign[i], assign[j] = kj, src
				return true
			}
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
