package scheduling

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

// tupleBlock holds the m-tuple partitions of one Partition call in two flat
// arrays: tuple t is positions [t·m, (t+1)·m) of sums and, in parallel, of
// sets, the arena references of the items backing each position. Lists of
// tuples are int32 indexes, so reordering one moves no pointer.
type tupleBlock struct {
	m    int
	sums []float64
	sets []setRef
}

// lay fills the block with one singleton tuple per item, (w, 0, …, 0),
// tuple i holding items[order[i]].
func (tb *tupleBlock) lay(items []Item, order []int, m int) {
	tb.m = m
	tb.sums = grown(tb.sums, len(order)*m)
	clear(tb.sums)
	tb.sets = grown(tb.sets, len(order)*m)
	clear(tb.sets)
	for i, idx := range order {
		tb.sums[i*m] = items[idx].Weight
		tb.sets[i*m] = leafRef(idx)
	}
}

// tuple returns the sums and sets of tuple t.
func (tb *tupleBlock) tuple(t int32) ([]float64, []setRef) {
	lo, hi := int(t)*tb.m, int(t+1)*tb.m
	return tb.sums[lo:hi:hi], tb.sets[lo:hi:hi]
}

// lead returns the leading (largest) value of tuple t.
func (tb *tupleBlock) lead(t int32) float64 { return tb.sums[int(t)*tb.m] }

// insert places tuple t into list[:len(list)−1], sorted by descending lead,
// using the free last slot: t goes after every tuple whose lead is not
// below its own.
func (tb *tupleBlock) insert(list []int32, t int32) {
	lead := tb.lead(t)
	i, j := 0, len(list)-1
	for i < j {
		if h := int(uint(i+j) >> 1); !(tb.lead(list[h]) < lead) {
			i = h + 1
		} else {
			j = h
		}
	}
	copy(list[i+1:], list[i:len(list)-1])
	list[i] = t
}

// assign records in assign the position of every item backing tuple t.
// stack is scratch space, returned for reuse.
func (tb *tupleBlock) assign(t int32, ar *mergeArena, assign []int, stack []setRef) []setRef {
	_, sets := tb.tuple(t)
	for pos, ref := range sets {
		stack = ar.assignTo(ref, pos, assign, stack)
	}
	return stack
}

// Partition implements Partitioner.
func (r RCKK) Partition(items []Item, m int) ([]int, error) {
	var scratch PartitionScratch
	return r.PartitionReuse(items, m, &scratch)
}

// PartitionReuse implements ReusePartitioner: identical assignments to
// Partition, but every working buffer — the merge arena, the tuple block,
// the sorted list, the walk stack and the result itself — lives in scratch
// and is recycled across calls.
func (RCKK) PartitionReuse(items []Item, m int, sc *PartitionScratch) ([]int, error) {
	return sc.difference(items, m, true)
}

// difference runs the KK differencing loop in sc: starting from one
// singleton tuple per item, it combines the two tuples with the largest
// leading values until one is left. reverse pairs position i of the first
// with position m−1−i of the second (RCKK, Algorithm 2); otherwise like
// positions pair (KKForward).
func (sc *PartitionScratch) difference(items []Item, m int, reverse bool) ([]int, error) {
	if err := validate(items, m); err != nil {
		return nil, err
	}
	n := len(items)
	sc.reserve(n, n*m)
	clear(sc.assign)
	if n == 0 || m == 1 {
		return sc.assign, nil // all zeros
	}

	// Tuple i holds the i-th heaviest item, so the list 0..n−1 starts
	// sorted by leading value. It has 2n capacity: the loop takes two
	// entries off the front for every one it re-inserts at the back.
	sc.order = WeightOrder(items, sc.order)
	tb := &sc.tuples
	tb.lay(items, sc.order, m)
	list := sc.list[:n]
	for i := range list {
		list[i] = int32(i)
	}
	ar := &mergeArena{nodes: sc.nodes[:0]}
	for len(list) > 1 {
		a, b := list[0], list[1]
		list = list[2:]
		sa, seta := tb.tuple(a)
		sb, setb := tb.tuple(b)
		for i := range sa {
			j := i
			if reverse {
				j = m - 1 - i
			}
			sa[i] += sb[j]
			seta[i] = ar.merge(seta[i], setb[j])
		}
		sortTuple(sa, seta)
		normalize(sa)
		list = list[:len(list)+1]
		tb.insert(list, a)
	}
	sc.stack = tb.assign(list[0], ar, sc.assign, sc.stack)
	sc.nodes = ar.nodes
	return sc.assign, nil
}

// sortTuple orders a tuple's positions by descending sum, carrying the
// backing sets along. The stable in-place insertion sort allocates nothing
// and produces the same permutation sort.SliceStable would (m is small: the
// instance count of one VNF).
func sortTuple(sums []float64, sets []setRef) {
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
func normalize(sums []float64) {
	last := sums[len(sums)-1]
	if last == 0 {
		return
	}
	for i := range sums {
		sums[i] -= last
	}
}

var _ ReusePartitioner = RCKK{}
