package scheduling

import (
	"slices"
	"sort"
	"strings"
)

// RCKK is the paper's Reverse Complete Karmarkar-Karp heuristic
// (Algorithm 2). Every request starts as its own m-tuple partition
// (λ_r, 0, …, 0); the two partitions with the largest leading values are
// repeatedly combined *in reverse order* — the largest position of one with
// the smallest of the other — then re-sorted and normalized by subtracting
// the smallest position. The surviving tuple's positions are the instance
// assignments. Reverse pairing is what cancels large against small; the
// forward-combining KK variant in this package exists to ablate exactly
// that choice.
type RCKK struct{}

// Name implements Partitioner.
func (RCKK) Name() string { return "RCKK" }

// setRef references one item set held in a mergeArena: 0 is the empty set,
// a negative value −(i+1) is the singleton {items[i]}, and a positive value
// k is the union recorded in nodes[k−1]. References are immutable once
// created, so search algorithms (CKK) can share subtrees across branches.
type setRef int32

// leafRef returns the singleton set reference for item index idx.
func leafRef(idx int) setRef { return setRef(-(idx + 1)) }

// mergeNode joins two non-empty sets.
type mergeNode struct {
	left, right setRef
}

// mergeArena holds the merge trees of one Partition call. Unioning two sets
// appends at most one node — O(1) instead of the O(|set|) copying a
// materialized [][]int representation needs per combine.
type mergeArena struct {
	nodes []mergeNode
}

// merge returns the union of sets a and b.
func (ar *mergeArena) merge(a, b setRef) setRef {
	if a == 0 {
		return b
	}
	if b == 0 {
		return a
	}
	ar.nodes = append(ar.nodes, mergeNode{left: a, right: b})
	return setRef(len(ar.nodes))
}

// mark returns a truncation point for rollback; see release.
func (ar *mergeArena) mark() int { return len(ar.nodes) }

// release discards every node created after mark. Only valid when no live
// partition still references those nodes (CKK truncates after finishing a
// search branch).
func (ar *mergeArena) release(mark int) { ar.nodes = ar.nodes[:mark] }

// assignTo walks the set tree under ref and records pos as the assignment of
// every member item. stack is scratch space, returned for reuse.
func (ar *mergeArena) assignTo(ref setRef, pos int, assign []int, stack []setRef) []setRef {
	if ref == 0 {
		return stack
	}
	stack = append(stack[:0], ref)
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if r < 0 {
			assign[-(r + 1)] = pos
			continue
		}
		nd := ar.nodes[r-1]
		stack = append(stack, nd.left, nd.right)
	}
	return stack
}

// partition is one m-tuple with the set of backing items per position.
type partition struct {
	sums []float64
	sets []setRef // parallel to sums; arena references, never materialized
}

// assignments fills assign from the partition's m set trees.
func (p *partition) assignments(ar *mergeArena, assign []int) {
	var stack []setRef
	for pos, ref := range p.sets {
		stack = ar.assignTo(ref, pos, assign, stack)
	}
}

// newPartitionList builds the initial one-item-per-partition list in the
// given item order, backed by two flat blocks so the whole list costs four
// allocations regardless of n.
func newPartitionList(items []Item, order []int, m int) []*partition {
	n := len(order)
	sums := make([]float64, n*m)
	sets := make([]setRef, n*m)
	parts := make([]partition, n)
	list := make([]*partition, n)
	for i, idx := range order {
		p := &parts[i]
		p.sums = sums[i*m : (i+1)*m : (i+1)*m]
		p.sets = sets[i*m : (i+1)*m : (i+1)*m]
		p.sums[0] = items[idx].Weight
		p.sets[0] = leafRef(idx)
		list[i] = p
	}
	return list
}

// Partition implements Partitioner.
func (r RCKK) Partition(items []Item, m int) ([]int, error) {
	var scratch PartitionScratch
	return r.PartitionReuse(items, m, &scratch)
}

// PartitionReuse implements ReusePartitioner: identical assignments to
// Partition, but every working buffer — the merge arena, the flat tuple
// blocks, the sorted list, the walk stack and the result itself — lives in
// scratch and is recycled across calls.
func (RCKK) PartitionReuse(items []Item, m int, sc *PartitionScratch) ([]int, error) {
	if err := validate(items, m); err != nil {
		return nil, err
	}
	n := len(items)
	sc.assign = grown(sc.assign, n)
	clear(sc.assign)
	if n == 0 || m == 1 {
		return sc.assign, nil // all zeros
	}

	// One partition per item: (λ_r, 0, …, 0). Build in descending weight
	// order so the list starts sorted by leading value.
	ar := &mergeArena{nodes: sc.nodes[:0]}
	list := sc.partitionList(items, m)

	for len(list) > 1 {
		a, b := list[0], list[1]
		list = list[2:]
		combineReverse(a, b, ar)
		list = insertSorted(list, a)
	}

	sc.stack = sc.stack[:0]
	for pos, ref := range list[0].sets {
		sc.stack = ar.assignTo(ref, pos, sc.assign, sc.stack)
	}
	sc.nodes = ar.nodes
	return sc.assign, nil
}

// partitionList is newPartitionList against the scratch's retained blocks:
// the list slice gets 2n capacity because the combine loop consumes two
// entries off the front for every one it re-inserts at the back.
func (sc *PartitionScratch) partitionList(items []Item, m int) []*partition {
	n := len(items)
	sc.order = grown(sc.order, n)
	for i := range sc.order {
		sc.order[i] = i
	}
	slices.SortStableFunc(sc.order, func(a, b int) int {
		switch wa, wb := items[a].Weight, items[b].Weight; {
		case wa > wb:
			return -1
		case wa < wb:
			return 1
		}
		return strings.Compare(string(items[a].ID), string(items[b].ID))
	})
	sc.sums = grown(sc.sums, n*m)
	clear(sc.sums)
	sc.sets = grown(sc.sets, n*m)
	clear(sc.sets)
	sc.parts = grown(sc.parts, n)
	if cap(sc.list) < 2*n {
		sc.list = make([]*partition, 2*n)
	}
	list := sc.list[:n]
	for i, idx := range sc.order {
		p := &sc.parts[i]
		p.sums = sc.sums[i*m : (i+1)*m : (i+1)*m]
		p.sets = sc.sets[i*m : (i+1)*m : (i+1)*m]
		p.sums[0] = items[idx].Weight
		p.sets[0] = leafRef(idx)
		list[i] = p
	}
	return list
}

// combineReverse merges b into a (in place, consuming b) with reverse
// pairing: position i of a with position m−1−i of b, then re-sorts positions
// descending and normalizes by the smallest position (Algorithm 2 steps 3–5).
func combineReverse(a, b *partition, ar *mergeArena) {
	m := len(a.sums)
	for i := 0; i < m; i++ {
		j := m - 1 - i
		a.sums[i] += b.sums[j]
		a.sets[i] = ar.merge(a.sets[i], b.sets[j])
	}
	sortPartition(a)
	normalize(a)
}

// sortPartition orders the tuple's positions by descending sum, carrying the
// backing sets along. The stable in-place insertion sort allocates nothing
// and produces the same permutation sort.SliceStable would (m is small: the
// instance count of one VNF).
func sortPartition(p *partition) {
	sums, sets := p.sums, p.sets
	for i := 1; i < len(sums); i++ {
		s, set := sums[i], sets[i]
		j := i
		for j > 0 && sums[j-1] < s {
			sums[j], sets[j] = sums[j-1], sets[j-1]
			j--
		}
		sums[j], sets[j] = s, set
	}
}

// normalize subtracts the smallest (last) position from every position.
func normalize(p *partition) {
	last := p.sums[len(p.sums)-1]
	if last == 0 {
		return
	}
	for i := range p.sums {
		p.sums[i] -= last
	}
}

// insertSorted returns list with p inserted keeping descending order of the
// leading value.
func insertSorted(list []*partition, p *partition) []*partition {
	pos := sort.Search(len(list), func(i int) bool { return list[i].sums[0] < p.sums[0] })
	list = append(list, nil)
	copy(list[pos+1:], list[pos:])
	list[pos] = p
	return list
}

var (
	_ Partitioner      = RCKK{}
	_ ReusePartitioner = RCKK{}
)
