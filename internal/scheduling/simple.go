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
	for rank, idx := range WeightOrder(items, nil) {
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
	var scratch PartitionScratch
	return scratch.difference(items, m, false)
}

// PartitionReuse implements ReusePartitioner.
func (KKForward) PartitionReuse(items []Item, m int, sc *PartitionScratch) ([]int, error) {
	return sc.difference(items, m, false)
}

var (
	_ Partitioner      = RoundRobin{}
	_ ReusePartitioner = KKForward{}
)
