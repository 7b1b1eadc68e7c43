package scheduling

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
	"nfvchain/internal/workload"
)

// The reference partitioners below scan items in the order of a stable
// sort by (weight desc, ID asc) and keep their KK lists as pointers to
// tuples, as the partitioners of this package once did. They are the
// oracle of TestPartitionersMatchStableReference.

// refStableOrder is the stable sort the shared WeightOrder replaces.
func refStableOrder(items []Item) []int {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		wa, wb := items[order[a]].Weight, items[order[b]].Weight
		if wa != wb {
			return wa > wb
		}
		return items[order[a]].ID < items[order[b]].ID
	})
	return order
}

type refTuple struct {
	sums []float64
	sets []setRef
}

// refCombine merges a and b into a new tuple, pairing position i of a with
// position perm[i] of b.
func refCombine(a, b *refTuple, perm []int, ar *mergeArena) *refTuple {
	m := len(a.sums)
	c := &refTuple{sums: make([]float64, m), sets: make([]setRef, m)}
	for i, j := range perm {
		c.sums[i] = a.sums[i] + b.sums[j]
		c.sets[i] = ar.merge(a.sets[i], b.sets[j])
	}
	sortTuple(c.sums, c.sets)
	normalize(c.sums)
	return c
}

func refInsert(list []*refTuple, p *refTuple) []*refTuple {
	pos := sort.Search(len(list), func(i int) bool { return list[i].sums[0] < p.sums[0] })
	list = append(list, nil)
	copy(list[pos+1:], list[pos:])
	list[pos] = p
	return list
}

func refSingletons(items []Item, m int) []*refTuple {
	var list []*refTuple
	for _, idx := range refStableOrder(items) {
		t := &refTuple{sums: make([]float64, m), sets: make([]setRef, m)}
		t.sums[0], t.sets[0] = items[idx].Weight, leafRef(idx)
		list = append(list, t)
	}
	return list
}

func refAssign(t *refTuple, ar *mergeArena, assign []int) {
	for pos, ref := range t.sets {
		ar.assignTo(ref, pos, assign, nil)
	}
}

func identityPerm(m int) []int {
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	return perm
}

// refKK is RCKK (reverse) or KKForward.
func refKK(items []Item, m int, reverse bool) []int {
	assign := make([]int, len(items))
	if len(items) == 0 || m == 1 {
		return assign
	}
	perm := identityPerm(m)
	if reverse {
		slices.Reverse(perm)
	}
	ar := &mergeArena{}
	list := refSingletons(items, m)
	for len(list) > 1 {
		list = refInsert(list[2:], refCombine(list[0], list[1], perm, ar))
	}
	refAssign(list[0], ar, assign)
	return assign
}

func refCKK(items []Item, m, maxNodes, maxPairings int) []int {
	best := refKK(items, m, true)
	if len(items) == 0 || m == 1 {
		return best
	}
	bestSpan := Makespan(Loads(items, best, m))
	ar := &mergeArena{}
	budget := maxNodes
	var search func(list []*refTuple)
	search = func(list []*refTuple) {
		if budget <= 0 {
			return
		}
		budget--
		if len(list) == 1 {
			assign := make([]int, len(items))
			refAssign(list[0], ar, assign)
			if span := Makespan(Loads(items, assign, m)); span < bestSpan {
				bestSpan, best = span, assign
			}
			return
		}
		var offset float64
		for _, p := range list[1:] {
			offset += p.sums[0]
		}
		if list[0].sums[0]-offset >= bestSpan {
			return
		}
		for _, perm := range pairings(m, maxPairings) {
			mark := ar.mark()
			c := refCombine(list[0], list[1], perm, ar)
			search(refInsert(append([]*refTuple(nil), list[2:]...), c))
			ar.release(mark)
			if budget <= 0 {
				return
			}
		}
	}
	search(refSingletons(items, m))
	return best
}

func refCGA(items []Item, m int, c CGA) []int {
	assign := make([]int, len(items))
	if len(items) == 0 || m == 1 {
		return assign
	}
	order := refStableOrder(items)
	if c.ArrivalOrder {
		order = identityPerm(len(items))
	}
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
	if c.MaxNodes <= 0 {
		return assign
	}
	bestSpan, budget := Makespan(Loads(items, assign, m)), c.MaxNodes
	cur := append([]int(nil), assign...)
	loads = make([]float64, m)
	var search func(depth int)
	search = func(depth int) {
		if budget <= 0 {
			return
		}
		budget--
		if depth == len(order) {
			if span := Makespan(loads); span < bestSpan {
				bestSpan = span
				copy(assign, cur)
			}
			return
		}
		idx, w := order[depth], items[order[depth]].Weight
		targets := identityPerm(m)
		sort.SliceStable(targets, func(a, b int) bool { return loads[targets[a]] < loads[targets[b]] })
		var lastLoad float64
		for i, k := range targets {
			if i > 0 && loads[k] == lastLoad {
				continue
			}
			lastLoad = loads[k]
			if loads[k]+w >= bestSpan {
				continue
			}
			loads[k] += w
			cur[idx] = k
			search(depth + 1)
			loads[k] -= w
		}
	}
	search(0)
	return assign
}

// tiedItems draws up to maxN items whose weights come mostly from five
// values and whose IDs from four, so ties on weight, on ID and on both are
// common.
func tiedItems(st *rng.Stream, maxN int) []Item {
	items := make([]Item, st.IntN(maxN+1))
	for i := range items {
		w := []float64{0, 1, 2, 2.5, 7}[st.IntN(5)]
		if st.IntN(4) == 0 {
			w = st.Uniform(0, 10)
		}
		items[i] = Item{ID: []model.RequestID{"a", "b", "c", "d"}[st.IntN(4)], Weight: w}
	}
	return items
}

// TestPartitionersMatchStableReference requires the shared total-order
// sort and the index-list KK loop to give every partitioner's reference
// assignment on inputs full of ties.
func TestPartitionersMatchStableReference(t *testing.T) {
	st := rng.New(30)
	for iter := 0; iter < 1500; iter++ {
		items := tiedItems(st, 40)
		m := 1 + st.IntN(6)
		what := fmt.Sprintf("case %d (m=%d): %v", iter, m, items)
		if got, want := WeightOrder(items, nil), refStableOrder(items); !slices.Equal(got, want) {
			t.Fatalf("%s: WeightOrder = %v, stable sort = %v", what, got, want)
		}
		small := items[:min(len(items), 12)]
		cgaSearch := CGA{MaxNodes: 500}
		for _, tc := range []struct {
			alg   Partitioner
			items []Item
			want  []int
		}{
			{RCKK{}, items, refKK(items, m, true)},
			{KKForward{}, items, refKK(items, m, false)},
			{CKK{MaxNodes: 300, MaxPairings: 3}, small, refCKK(small, m, 300, 3)},
			{CGA{}, items, refCGA(items, m, CGA{})},
			{CGA{ArrivalOrder: true}, items, refCGA(items, m, CGA{ArrivalOrder: true})},
			{cgaSearch, small, refCGA(small, m, cgaSearch)},
		} {
			got, err := tc.alg.Partition(tc.items, m)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("%s: %s (%+v) = %v, reference %v", what, tc.alg.Name(), tc.alg, got, tc.want)
			}
		}
	}
}

// TestScheduleAllAllocationsFlat pins that scheduling a problem with RCKK
// allocates the same number of times at every request count: one scratch,
// sized once, serves every VNF.
func TestScheduleAllAllocationsFlat(t *testing.T) {
	allocs := func(requests int) float64 {
		cfg := workload.DefaultConfig()
		cfg.NumRequests = requests
		p, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(20, func() {
			if _, err := ScheduleAll(p, RCKK{}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(50), allocs(500); small != large {
		t.Fatalf("ScheduleAll(p, RCKK{}) allocations: %v at R=50, %v at R=500", small, large)
	}
}
