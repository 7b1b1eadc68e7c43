package scheduling

// RoundRobin deals requests to instances cyclically in descending weight
// order — the simplest balance-agnostic baseline for the ablation benches.
type RoundRobin struct{}

// Name implements Partitioner.
func (RoundRobin) Name() string { return "RoundRobin" }

// Partition implements Partitioner.
func (RoundRobin) Partition(items []Item, m int) ([]int, error) {
	if err := validate(items, m); err != nil {
		return nil, err
	}
	assign := make([]int, len(items))
	for rank, idx := range sortedIndexesByWeightDesc(items) {
		assign[idx] = rank % m
	}
	return assign, nil
}

// KKForward is the degenerate extreme of the paper's "m! ways of combining
// two partitions" (Section IV-C): identical tuple machinery to RCKK but the
// two largest partitions are combined *position-wise* (largest with
// largest). Since every partition starts with all mass in position 0,
// forward pairing never spreads anything — it collapses to one instance,
// which is exactly why the paper combines in reverse order. Kept as the
// worst member of the pairing space.
type KKForward struct{}

// Name implements Partitioner.
func (KKForward) Name() string { return "KKForward" }

// Partition implements Partitioner.
func (KKForward) Partition(items []Item, m int) ([]int, error) {
	if err := validate(items, m); err != nil {
		return nil, err
	}
	n := len(items)
	assign := make([]int, n)
	if n == 0 || m == 1 {
		return assign, nil
	}
	ar := &mergeArena{nodes: make([]mergeNode, 0, n)}
	list := newPartitionList(items, sortedIndexesByWeightDesc(items), m)
	for len(list) > 1 {
		a, b := list[0], list[1]
		list = list[2:]
		for i := 0; i < m; i++ {
			a.sums[i] += b.sums[i]
			a.sets[i] = ar.merge(a.sets[i], b.sets[i])
		}
		sortPartition(a)
		normalize(a)
		list = insertSorted(list, a)
	}
	list[0].assignments(ar, assign)
	return assign, nil
}

var (
	_ Partitioner = RoundRobin{}
	_ Partitioner = KKForward{}
)
