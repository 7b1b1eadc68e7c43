// Package scheduling implements the request-scheduling algorithms of the
// paper's Section IV-B. Assigning the requests R_f that use a VNF f to its
// M_f service instances so that per-instance total arrival rates are as
// equal as possible is multi-way number partitioning (NP-hard); the paper's
// contribution is RCKK (Reverse Complete Karmarkar-Karp, Algorithm 2),
// evaluated against CGA (the greedy descent of Korf's Complete Greedy
// Algorithm). Additional comparators — forward-combining KK (ablation), an
// exact branch-and-bound partitioner, round-robin and random — support the
// optimality and ablation analyses.
//
// Balanced instance loads minimize the average M/M/1 response latency
// W(f,k) = 1/(P·µ_f − Σ_r λ_r z_{r,k}^f) across instances (paper Eq. 12/15),
// which is why every algorithm here reduces to partitioning the requests'
// effective rates.
package scheduling

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"nfvchain/internal/model"
)

// Item is one request's contribution to a VNF's load: its retransmission-
// inflated arrival rate λ_r/P_r.
type Item struct {
	ID     model.RequestID
	Weight float64
}

// Partitioner splits items across m service instances.
type Partitioner interface {
	// Name returns the short algorithm identifier used in experiment output.
	Name() string
	// Partition returns assign[i] = instance index of items[i], with every
	// index in [0,m). Implementations must not mutate items.
	Partition(items []Item, m int) ([]int, error)
}

// ReusePartitioner is implemented by partitioners that can run against
// caller-retained scratch buffers, allocation-free in steady state. The
// returned assignment slice aliases the scratch and is only valid until the
// next call with the same scratch — callers that keep results must copy.
// Repair controllers rebalance on every node transition, so this is their
// hot path.
type ReusePartitioner interface {
	Partitioner
	PartitionReuse(items []Item, m int, scratch *PartitionScratch) ([]int, error)
}

// PartitionScratch holds the reusable buffers of PartitionReuse calls. The
// zero value is ready; a scratch must not be shared across goroutines.
type PartitionScratch struct {
	assign []int
	order  []int
	nodes  []mergeNode
	tuples tupleBlock
	list   []int32
	stack  []setRef
}

// reserve sizes the buffers for partitions of up to n items into tuples of
// up to nm = n·m positions, so no call within those bounds grows them: a
// set tree over n items has fewer than n union nodes, and the walk over it
// holds at most one pending set per item. assign and order are left n long.
func (sc *PartitionScratch) reserve(n, nm int) {
	sc.assign = grown(sc.assign, n)
	sc.order = grown(sc.order, n)
	sc.nodes = grown(sc.nodes, n)[:0]
	sc.tuples.sums = grown(sc.tuples.sums, nm)
	sc.tuples.sets = grown(sc.tuples.sets, nm)
	sc.list = grown(sc.list, 2*n)
	sc.stack = grown(sc.stack, n)[:0]
}

// grown returns s resized to n elements, reusing its backing array when
// large enough and otherwise at least doubling it, so that a scratch reused
// on slowly growing inputs reallocates rarely; contents are unspecified.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
}

// validate rejects structurally bad partition inputs on behalf of all
// implementations. A NaN weight is rejected so that WeightOrder is total.
func validate(items []Item, m int) error {
	if m < 1 {
		return fmt.Errorf("scheduling: instance count %d < 1", m)
	}
	for _, it := range items {
		if it.Weight < 0 {
			return fmt.Errorf("scheduling: item %s has negative weight %v", it.ID, it.Weight)
		}
		if math.IsNaN(it.Weight) {
			return fmt.Errorf("scheduling: item %s has weight NaN", it.ID)
		}
	}
	return nil
}

// WeightOrder returns the indexes of items, heaviest first, ties broken by
// ID and then by index, reusing order's storage. Every partitioner here
// scans items in this strict total order; it is the permutation a stable
// sort by weight and ID gives, and the byWeight of ImproveInPlace.
func WeightOrder(items []Item, order []int) []int {
	order = grown(order, len(items))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		switch wa, wb := items[a].Weight, items[b].Weight; {
		case wa > wb:
			return -1
		case wa < wb:
			return 1
		}
		if c := strings.Compare(string(items[a].ID), string(items[b].ID)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return order
}

// Loads sums item weights per instance for a given assignment.
func Loads(items []Item, assign []int, m int) []float64 {
	loads := make([]float64, m)
	for i, it := range items {
		loads[assign[i]] += it.Weight
	}
	return loads
}

// Makespan returns the maximum instance load, the quantity exact
// partitioning minimizes.
func Makespan(loads []float64) float64 {
	var maxL float64
	for _, l := range loads {
		if l > maxL {
			maxL = l
		}
	}
	return maxL
}

// ScheduleAll partitions every VNF's request set across its instances with
// the given algorithm and returns the complete schedule (the z_{r,k}^f
// matrix of Eq. 5), laid out on one index of p. The partition input of VNF
// f is one item per request of R_f, in request order, weighted by its
// effective rate λ_r/P_r (Eq. 7). Every VNF is partitioned through one
// items buffer sized up front for the largest R_f. A ReusePartitioner
// (RCKK, KKForward) also works in one scratch, sized likewise.
func ScheduleAll(p *model.Problem, alg Partitioner) (*model.Schedule, error) {
	return ScheduleValid(model.Compile(p), alg)
}

// ScheduleValid is ScheduleAll on an index already built, as core.Optimize
// holds it by the time it schedules: it returns the fault the build found,
// if any, instead of checking the problem again, and lays the schedule out
// on ix.
func ScheduleValid(ix *model.Index, alg Partitioner) (*model.Schedule, error) {
	if err := ix.Fault(); err != nil {
		return nil, fmt.Errorf("scheduling: %w", err)
	}
	p := ix.Problem()
	s := model.NewSchedule(ix)
	maxN, maxNM := 0, 0
	for fi, f := range p.VNFs {
		n := len(ix.Users(fi))
		maxN, maxNM = max(maxN, n), max(maxNM, n*f.Instances)
	}
	buf := make([]Item, maxN)
	reuse, _ := alg.(ReusePartitioner)
	var sc PartitionScratch
	if reuse != nil {
		sc.reserve(maxN, maxNM)
	}
	for fi, f := range p.VNFs {
		users := ix.Users(fi)
		if len(users) == 0 {
			continue
		}
		items := buf[:len(users)]
		for i, r := range users {
			items[i] = Item{ID: p.Requests[r].ID, Weight: p.Requests[r].EffectiveRate()}
		}
		var assign []int
		var err error
		if reuse != nil {
			assign, err = reuse.PartitionReuse(items, f.Instances, &sc)
		} else {
			assign, err = alg.Partition(items, f.Instances)
		}
		if err != nil {
			return nil, fmt.Errorf("scheduling: vnf %s: %w", f.ID, err)
		}
		if len(assign) != len(items) {
			return nil, fmt.Errorf("scheduling: vnf %s: %s returned %d assignments for %d items",
				f.ID, alg.Name(), len(assign), len(items))
		}
		slots := ix.UserSlots(fi)
		for i, it := range items {
			if assign[i] < 0 || assign[i] >= f.Instances {
				return nil, fmt.Errorf("scheduling: vnf %s: %s assigned item %s to instance %d outside [0,%d)",
					f.ID, alg.Name(), it.ID, assign[i], f.Instances)
			}
			s.AssignSlot(int(users[i]), int(slots[i]), assign[i])
		}
	}
	return s, nil
}
