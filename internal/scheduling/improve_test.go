package scheduling

import (
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
)

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
