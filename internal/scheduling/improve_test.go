package scheduling

import (
	"slices"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
)

// refImproveInPlace and refImproveOnce are the local search as it was
// written before its swap scan was pruned to a weight window: every pair
// (i on src, j elsewhere) in index order. They are the oracle the pruned
// scan must match round for round.
func refImproveInPlace(items []Item, assign []int, m, maxRounds int) int {
	if maxRounds <= 0 {
		maxRounds = DefaultImproveRounds
	}
	loads := Loads(items, assign, m)
	rounds := 0
	for ; rounds < maxRounds; rounds++ {
		if !refImproveOnce(items, assign, loads) {
			break
		}
	}
	return rounds
}

func refImproveOnce(items []Item, assign []int, loads []float64) bool {
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

// improveInstance draws m in 1–6, n in 1–80 items and a random assignment.
// Each instance mixes weight families: small integers (ties and zeros),
// weights below 1e-9, weights in [0, 100), and multiples of a third of a
// million, whose sums round by more than the scan's 1e-12 margin — where
// a window bound wj > wi−(span−lo), the same inequality rounded
// differently, drops passing swaps.
func improveInstance(r *rng.Stream) ([]Item, []int, int) {
	m, n := 1+r.IntN(6), 1+r.IntN(80)
	families := 1 + r.IntN(15) // a bit mask of the families in use
	items, assign := make([]Item, n), make([]int, n)
	for i := range items {
		f := r.IntN(4)
		for families&(1<<f) == 0 {
			f = r.IntN(4)
		}
		var w float64
		switch f {
		case 0:
			w = float64(r.IntN(6))
		case 1:
			w = r.Float64() * 1e-9
		case 2:
			w = r.Float64() * 100
		case 3:
			w = float64(1+r.IntN(30)) * (1e6 / 3)
		}
		items[i] = Item{ID: model.RequestID(rune('a' + i%26)), Weight: w}
		assign[i] = r.IntN(m)
	}
	return items, assign, m
}

// TestImproveInPlaceMatchesReference requires the pruned swap scan to take
// the same rounds to the same assignment as the full scan, on 10,000
// random instances.
func TestImproveInPlaceMatchesReference(t *testing.T) {
	r := rng.New(89)
	var order []int
	loads := make([]float64, 6)
	swapped := 0
	for trial := 0; trial < 10000; trial++ {
		items, start, m := improveInstance(r)
		want := slices.Clone(start)
		wantRounds := refImproveInPlace(items, want, m, 0)
		got := slices.Clone(start)
		order = WeightOrder(items, order)
		gotRounds := ImproveInPlace(items, order, got, loads[:m], 0)
		if gotRounds != wantRounds || !slices.Equal(got, want) {
			t.Fatalf("trial %d (m=%d, items %v, start %v): %d rounds to %v, reference %d rounds to %v",
				trial, m, items, start, gotRounds, got, wantRounds, want)
		}
		if refSwaps(items, start, m) > 0 {
			swapped++
		}
	}
	t.Logf("%d of 10000 instances took a swap", swapped)
	if swapped < 1000 {
		t.Fatalf("only %d instances took a swap; the instances test too little", swapped)
	}
}

// refSwaps counts the reference's swap rounds from start: a move changes
// one entry of the assignment, a swap two.
func refSwaps(items []Item, start []int, m int) int {
	a := slices.Clone(start)
	loads := Loads(items, a, m)
	swaps := 0
	before := slices.Clone(a)
	for round := 0; round < DefaultImproveRounds && refImproveOnce(items, a, loads); round++ {
		changed := 0
		for i := range a {
			if a[i] != before[i] {
				changed++
			}
		}
		if changed == 2 {
			swaps++
		}
		copy(before, a)
	}
	return swaps
}

func TestImproveNeverWorsensMakespan(t *testing.T) {
	s := rng.New(61)
	for trial := 0; trial < 40; trial++ {
		n := 8 + s.IntN(40)
		is := make([]Item, n)
		for i := range is {
			is[i] = Item{ID: model.RequestID(string(rune('A'+i%26)) + string(rune('0'+i/26))), Weight: s.Uniform(1, 100)}
		}
		m := 2 + s.IntN(6)
		for _, alg := range []Partitioner{RoundRobin{}, CGA{ArrivalOrder: true}, RCKK{}} {
			assign, err := alg.Partition(is, m)
			if err != nil {
				t.Fatal(err)
			}
			before := Makespan(Loads(is, assign, m))
			better, err := Improve(is, assign, m, 0)
			if err != nil {
				t.Fatal(err)
			}
			after := Makespan(Loads(is, better, m))
			if after > before+1e-9 {
				t.Fatalf("trial %d %s: Improve worsened %v → %v", trial, alg.Name(), before, after)
			}
			// Conservation: same multiset of assignments.
			var sumBefore, sumAfter float64
			for _, l := range Loads(is, assign, m) {
				sumBefore += l
			}
			for _, l := range Loads(is, better, m) {
				sumAfter += l
			}
			if diff := sumBefore - sumAfter; diff > 1e-9 || diff < -1e-9 {
				t.Fatal("Improve lost load")
			}
			// Input slice untouched.
			check := Makespan(Loads(is, assign, m))
			if check != before {
				t.Fatal("Improve mutated input assignment")
			}
		}
	}
}

func TestImproveFixesBadAssignment(t *testing.T) {
	// Everything on instance 0: local search must spread it.
	is := items(10, 9, 8, 7, 6, 5)
	assign := make([]int, len(is))
	before := Makespan(Loads(is, assign, 3))
	better, err := Improve(is, assign, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	after := Makespan(Loads(is, better, 3))
	if after >= before {
		t.Errorf("Improve left makespan %v (was %v)", after, before)
	}
	// Optimal makespan for {10,9,8,7,6,5} into 3 is 15; move/swap search
	// should land at or near it.
	if after > 17 {
		t.Errorf("makespan %v far from optimal 15", after)
	}
}

func TestImproveApproachesExact(t *testing.T) {
	s := rng.New(71)
	var gapGreedy, gapPolished float64
	for trial := 0; trial < 15; trial++ {
		n := 8 + s.IntN(8)
		is := make([]Item, n)
		for i := range is {
			is[i] = Item{ID: model.RequestID(string(rune('a' + i))), Weight: float64(s.UniformInt(1, 40))}
		}
		m := 2 + s.IntN(3)
		opt, err := (&Exact{}).Partition(is, m)
		if err != nil {
			t.Fatal(err)
		}
		optSpan := Makespan(Loads(is, opt, m))
		greedy, err := CGA{ArrivalOrder: true}.Partition(is, m)
		if err != nil {
			t.Fatal(err)
		}
		polished, err := Improve(is, greedy, m, 0)
		if err != nil {
			t.Fatal(err)
		}
		pSpan := Makespan(Loads(is, polished, m))
		if pSpan < optSpan-1e-9 {
			t.Fatalf("trial %d: polished beats exact — impossible", trial)
		}
		gapGreedy += Makespan(Loads(is, greedy, m)) - optSpan
		gapPolished += pSpan - optSpan
	}
	if gapPolished >= gapGreedy {
		t.Errorf("Improve did not shrink arrival-greedy's gap: %v → %v", gapGreedy, gapPolished)
	}
}

func TestImproveSchedule(t *testing.T) {
	p := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 100}},
		VNFs:  []model.VNF{{ID: "f", Instances: 3, Demand: 1, ServiceRate: 1000}},
		Requests: []model.Request{
			{ID: "r1", Chain: []model.VNFID{"f"}, Rate: 10, DeliveryProb: 1},
			{ID: "r2", Chain: []model.VNFID{"f"}, Rate: 9, DeliveryProb: 1},
			{ID: "r3", Chain: []model.VNFID{"f"}, Rate: 8, DeliveryProb: 1},
			{ID: "r4", Chain: []model.VNFID{"f"}, Rate: 7, DeliveryProb: 1},
			{ID: "r5", Chain: []model.VNFID{"f"}, Rate: 6, DeliveryProb: 1},
			{ID: "r6", Chain: []model.VNFID{"f"}, Rate: 5, DeliveryProb: 1},
		},
	}
	bad := model.NewSchedule(model.Compile(p))
	for _, r := range p.Requests {
		bad.Assign(r.ID, "f", 0) // everything on one instance
	}
	before := Makespan(bad.InstanceLoads(p, "f"))
	better, err := ImproveSchedule(p, bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := better.Validate(p); err != nil {
		t.Fatal(err)
	}
	after := Makespan(better.InstanceLoads(p, "f"))
	if after >= before {
		t.Errorf("ImproveSchedule left makespan %v (was %v)", after, before)
	}
	// The original schedule is untouched.
	if Makespan(bad.InstanceLoads(p, "f")) != before {
		t.Error("ImproveSchedule mutated input")
	}

	incomplete := model.NewSchedule(model.Compile(p))
	if _, err := ImproveSchedule(p, incomplete); err == nil {
		t.Error("incomplete schedule accepted")
	}
}

func TestImproveValidation(t *testing.T) {
	is := items(1, 2, 3)
	if _, err := Improve(is, []int{0, 1}, 2, 0); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := Improve(is, []int{0, 1, 5}, 2, 0); err == nil {
		t.Error("out-of-range assignment accepted")
	}
	if _, err := Improve(is, []int{0, 0, 0}, 0, 0); err == nil {
		t.Error("m=0 accepted")
	}
	got, err := Improve(nil, nil, 3, 0)
	if err != nil || len(got) != 0 {
		t.Errorf("empty improve: %v %v", got, err)
	}
}
