package scheduling

import (
	"sort"
)

// CKK is the Complete Karmarkar-Karp algorithm (Korf 2009), the second
// complete comparator the paper names alongside CGA. Its first descent is
// exactly the KK differencing heuristic; on backtracking it explores the
// alternative combinations of the two largest partitions, so given enough
// node budget it converges to the optimal makespan. For m = 2 the branch is
// the classic binary choice (difference the two largest values vs. sum
// them); for m > 2 it branches over distinct pairings of the two leading
// tuples, which is why — as the paper observes — it "does not scale well as
// the number of instances increases".
type CKK struct {
	// MaxNodes bounds the search-tree size; 0 means DefaultCKKMaxNodes.
	MaxNodes int
	// MaxPairings bounds how many of the m! pairings are tried per branch
	// point for m > 2 (ordered from reverse pairing outward); 0 means
	// DefaultCKKMaxPairings.
	MaxPairings int
}

// Defaults for CKK's tractability guards.
const (
	DefaultCKKMaxNodes    = 200_000
	DefaultCKKMaxPairings = 6
)

// Name implements Partitioner.
func (c CKK) Name() string { return "CKK" }

// Partition implements Partitioner.
func (c CKK) Partition(items []Item, m int) ([]int, error) {
	if err := validate(items, m); err != nil {
		return nil, err
	}
	n := len(items)
	assign := make([]int, n)
	if n == 0 || m == 1 {
		return assign, nil
	}

	maxNodes := c.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultCKKMaxNodes
	}
	maxPairings := c.MaxPairings
	if maxPairings <= 0 {
		maxPairings = DefaultCKKMaxPairings
	}

	// Seed the incumbent with plain RCKK (the first CKK descent), then
	// restart from one singleton tuple per item in the same scratch.
	var sc PartitionScratch
	incumbent, err := RCKK{}.PartitionReuse(items, m, &sc)
	if err != nil {
		return nil, err
	}
	sc.tuples.lay(items, sc.order, m)
	s := &ckkSearch{
		items:    items,
		tuples:   &sc.tuples,
		arena:    &mergeArena{nodes: sc.nodes[:0]},
		lists:    sc.list[:n],
		best:     incumbent,
		bestSpan: Makespan(Loads(items, incumbent, m)),
		budget:   maxNodes,
		perms:    pairings(m, maxPairings),
		cur:      make([]int, n),
		loads:    make([]float64, m),
	}
	for i := range s.lists {
		s.lists[i] = int32(i)
	}
	s.search(s.lists)
	copy(assign, s.best)
	return assign, nil
}

// ckkSearch is the state of one CKK tree search. Tuples made on a branch
// are appended to the block and the arena, and each level's list to lists;
// all three are cut back when the branch returns, so the search holds
// memory in proportion to its depth.
type ckkSearch struct {
	items    []Item
	tuples   *tupleBlock
	arena    *mergeArena
	lists    []int32 // the lists of every level on the current path
	best     []int
	bestSpan float64
	budget   int
	perms    [][]int // the pairings tried at every branch point
	cur      []int   // a leaf's assignment
	loads    []float64
	stack    []setRef
}

// search recursively combines the two leading partitions under every
// admissible pairing. list is always sorted descending by leading value.
func (s *ckkSearch) search(list []int32) {
	if s.budget <= 0 {
		return
	}
	s.budget--
	tb := s.tuples
	if len(list) == 1 {
		s.stack = tb.assign(list[0], s.arena, s.cur, s.stack)
		clear(s.loads)
		for i, it := range s.items {
			s.loads[s.cur[i]] += it.Weight
		}
		if span := Makespan(s.loads); span < s.bestSpan {
			s.bestSpan = span
			copy(s.best, s.cur)
		}
		return
	}

	a, b := list[0], list[1]
	rest := list[2:]

	// Lower bound: the largest remaining leading value can never shrink
	// below (a0 − everything else's capacity to offset); cheap bound: the
	// current leading value minus the sum of all other leading values.
	var offset float64
	for _, t := range list[1:] {
		offset += tb.lead(t)
	}
	if tb.lead(a)-offset >= s.bestSpan {
		return
	}

	for _, perm := range s.perms {
		// Whatever a branch creates is dead once it returns (the incumbent
		// is copied out at the leaf), so the block, the arena and the lists
		// roll back to keep peak memory proportional to search depth rather
		// than total nodes visited.
		mark, tuples, lists := s.arena.mark(), len(tb.sums), len(s.lists)
		c := s.combine(a, b, perm)
		s.lists = append(append(s.lists, rest...), 0)
		next := s.lists[lists:]
		tb.insert(next, c)
		s.search(next)
		s.arena.release(mark)
		tb.sums, tb.sets = tb.sums[:tuples], tb.sets[:tuples]
		s.lists = s.lists[:lists]
		if s.budget <= 0 {
			return
		}
	}
}

// combine appends to the block the merge of tuples a and b, pairing
// position i of a with position perm[i] of b, then sorts and normalizes it.
// Unlike the in-place combine of RCKK it keeps a and b intact: the search
// revisits them under other pairings.
func (s *ckkSearch) combine(a, b int32, perm []int) int32 {
	tb := s.tuples
	c := int32(len(tb.sums) / tb.m)
	tb.sums = append(tb.sums, make([]float64, tb.m)...)
	tb.sets = append(tb.sets, make([]setRef, tb.m)...)
	sa, seta := tb.tuple(a)
	sb, setb := tb.tuple(b)
	sc, setc := tb.tuple(c)
	for i, j := range perm {
		sc[i] = sa[i] + sb[j]
		setc[i] = s.arena.merge(seta[i], setb[j])
	}
	sortTuple(sc, setc)
	normalize(sc)
	return c
}

// pairings enumerates up to limit permutations of [0,m), starting from the
// reverse pairing (the KK move) and then lexicographic alternatives. For
// m = 2 this is exactly {reverse, identity} — difference vs. sum.
func pairings(m, limit int) [][]int {
	reverse := make([]int, m)
	for i := range reverse {
		reverse[i] = m - 1 - i
	}
	out := [][]int{reverse}
	if limit <= 1 {
		return out
	}
	// Enumerate permutations in lexicographic order, skipping the reverse
	// pairing already emitted.
	perm := make([]int, m)
	for i := range perm {
		perm[i] = i
	}
	for len(out) < limit {
		cand := append([]int(nil), perm...)
		if !equalInts(cand, reverse) {
			out = append(out, cand)
		}
		if !nextPermutation(perm) {
			break
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// nextPermutation advances perm to the next lexicographic permutation,
// returning false after the last one.
func nextPermutation(perm []int) bool {
	i := len(perm) - 2
	for i >= 0 && perm[i] >= perm[i+1] {
		i--
	}
	if i < 0 {
		return false
	}
	j := len(perm) - 1
	for perm[j] <= perm[i] {
		j--
	}
	perm[i], perm[j] = perm[j], perm[i]
	sort.Ints(perm[i+1:])
	return true
}

var _ Partitioner = CKK{}
