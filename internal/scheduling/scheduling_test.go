package scheduling

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
	"nfvchain/internal/workload"
)

func items(ws ...float64) []Item {
	out := make([]Item, len(ws))
	for i, w := range ws {
		out[i] = Item{ID: model.RequestID(string(rune('a' + i))), Weight: w}
	}
	return out
}

// spread is max−min instance load, the balance measure behind the paper's
// Objective 2 ("balance Σλ_r of each instance as nearly equal as possible").
func spread(loads []float64) float64 { return slices.Max(loads) - slices.Min(loads) }

func allPartitioners() []Partitioner {
	return []Partitioner{RCKK{}, CGA{}, CGA{MaxNodes: 10000}, KKForward{}, RoundRobin{}, &Exact{}}
}

func TestValidateRejectsBadInput(t *testing.T) {
	for _, alg := range allPartitioners() {
		if _, err := alg.Partition(items(1, 2), 0); err == nil {
			t.Errorf("%s accepted m=0", alg.Name())
		}
		if _, err := alg.Partition([]Item{{ID: "x", Weight: -1}}, 2); err == nil {
			t.Errorf("%s accepted negative weight", alg.Name())
		}
	}
}

func TestEmptyAndSingleInstance(t *testing.T) {
	for _, alg := range allPartitioners() {
		got, err := alg.Partition(nil, 3)
		if err != nil || len(got) != 0 {
			t.Errorf("%s on empty items: %v, %v", alg.Name(), got, err)
		}
		got, err = alg.Partition(items(5, 3, 2), 1)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		for _, k := range got {
			if k != 0 {
				t.Errorf("%s assigned instance %d with m=1", alg.Name(), k)
			}
		}
	}
}

func TestAssignmentsInRangeAndConserveSum(t *testing.T) {
	is := items(8, 7, 6, 5, 4, 3, 2, 1)
	var total float64
	for _, it := range is {
		total += it.Weight
	}
	for _, alg := range allPartitioners() {
		for _, m := range []int{2, 3, 5} {
			assign, err := alg.Partition(is, m)
			if err != nil {
				t.Fatalf("%s m=%d: %v", alg.Name(), m, err)
			}
			if len(assign) != len(is) {
				t.Fatalf("%s m=%d: %d assignments", alg.Name(), m, len(assign))
			}
			loads := Loads(is, assign, m)
			var sum float64
			for _, l := range loads {
				sum += l
			}
			if math.Abs(sum-total) > 1e-9 {
				t.Errorf("%s m=%d: loads sum %v, want %v", alg.Name(), m, sum, total)
			}
			for i, k := range assign {
				if k < 0 || k >= m {
					t.Errorf("%s m=%d: item %d → instance %d", alg.Name(), m, i, k)
				}
			}
		}
	}
}

func TestKnownTwoWayCase(t *testing.T) {
	// Items 8,7,6,5,4 into 2 instances. Optimal split is {8,7}/{6,5,4}
	// (makespan 15). The KK differencing method reaches spread 2
	// (e.g. {8,6}/{7,5,4}); greedy LPT ends at spread 4 ({8,5,4}/{7,6}).
	is := items(8, 7, 6, 5, 4)

	exact, err := (&Exact{}).Partition(is, 2)
	if err != nil {
		t.Fatal(err)
	}
	if span := Makespan(Loads(is, exact, 2)); span != 15 {
		t.Errorf("Exact makespan = %v, want 15", span)
	}

	rckk, err := RCKK{}.Partition(is, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := spread(Loads(is, rckk, 2)); got != 2 {
		t.Errorf("RCKK spread = %v, want 2 (KK differencing)", got)
	}

	cga, err := CGA{}.Partition(is, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := spread(Loads(is, cga, 2)); got != 4 {
		t.Errorf("CGA spread = %v, want 4 (LPT)", got)
	}
}

func TestCGACompleteSearchImproves(t *testing.T) {
	is := items(8, 7, 6, 5, 4)
	full, err := CGA{MaxNodes: 1_000_000}.Partition(is, 2)
	if err != nil {
		t.Fatal(err)
	}
	if span := Makespan(Loads(is, full, 2)); span != 15 {
		t.Errorf("complete CGA makespan = %v, want optimal 15", span)
	}
}

func TestRCKKDeterministic(t *testing.T) {
	is := items(9, 3, 7, 1, 4, 4, 8, 2)
	a, _ := RCKK{}.Partition(is, 3)
	b, _ := RCKK{}.Partition(is, 3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("RCKK not deterministic")
		}
	}
}

func TestRCKKBeatsCGAOnAverage(t *testing.T) {
	// The paper's headline scheduling claim: RCKK yields better balance
	// (hence lower mean response time) than greedy CGA averaged over many
	// random instances.
	s := rng.New(1234)
	const trials = 300
	var rckkSpread, cgaSpread float64
	for trial := 0; trial < trials; trial++ {
		n := 15 + s.IntN(50)
		is := make([]Item, n)
		for i := range is {
			is[i] = Item{ID: model.RequestID(string(rune('A'+i%26)) + string(rune('0'+i/26))), Weight: s.Uniform(1, 100)}
		}
		m := 2 + s.IntN(7)
		ra, err := RCKK{}.Partition(is, m)
		if err != nil {
			t.Fatal(err)
		}
		ca, err := CGA{}.Partition(is, m)
		if err != nil {
			t.Fatal(err)
		}
		rckkSpread += spread(Loads(is, ra, m))
		cgaSpread += spread(Loads(is, ca, m))
	}
	if rckkSpread >= cgaSpread {
		t.Errorf("mean RCKK spread %v >= mean CGA spread %v over %d trials",
			rckkSpread/trials, cgaSpread/trials, trials)
	}
}

func TestReversePairingBeatsForward(t *testing.T) {
	// Ablation of the paper's key design choice in Algorithm 2.
	s := rng.New(99)
	const trials = 200
	var rev, fwd float64
	for trial := 0; trial < trials; trial++ {
		n := 10 + s.IntN(40)
		is := make([]Item, n)
		for i := range is {
			is[i] = Item{ID: model.RequestID(string(rune('A'+i%26)) + string(rune('0'+i/26))), Weight: s.Uniform(1, 50)}
		}
		m := 2 + s.IntN(5)
		ra, err := RCKK{}.Partition(is, m)
		if err != nil {
			t.Fatal(err)
		}
		fa, err := KKForward{}.Partition(is, m)
		if err != nil {
			t.Fatal(err)
		}
		rev += spread(Loads(is, ra, m))
		fwd += spread(Loads(is, fa, m))
	}
	if rev >= fwd {
		t.Errorf("reverse pairing spread %v >= forward %v — ablation should favor reverse", rev/trials, fwd/trials)
	}
}

func TestKKForwardCollapsesToOneInstance(t *testing.T) {
	// Forward pairing is the degenerate member of the paper's m! pairing
	// space: all mass stays in position 0.
	is := items(9, 7, 5, 3, 1)
	assign, err := KKForward{}.Partition(is, 3)
	if err != nil {
		t.Fatal(err)
	}
	loads := Loads(is, assign, 3)
	if loads[0] != 25 || loads[1] != 0 || loads[2] != 0 {
		t.Errorf("forward pairing loads = %v, expected total collapse", loads)
	}
}

func TestExactNeverWorse(t *testing.T) {
	s := rng.New(5)
	for trial := 0; trial < 20; trial++ {
		n := 6 + s.IntN(10)
		is := make([]Item, n)
		for i := range is {
			is[i] = Item{ID: model.RequestID(string(rune('a' + i))), Weight: float64(s.UniformInt(1, 30))}
		}
		m := 2 + s.IntN(3)
		opt, err := (&Exact{}).Partition(is, m)
		if err != nil {
			t.Fatal(err)
		}
		optSpan := Makespan(Loads(is, opt, m))
		for _, alg := range []Partitioner{RCKK{}, CGA{}, KKForward{}, RoundRobin{}} {
			a, err := alg.Partition(is, m)
			if err != nil {
				t.Fatal(err)
			}
			if span := Makespan(Loads(is, a, m)); span < optSpan-1e-9 {
				t.Errorf("trial %d: %s makespan %v < exact %v", trial, alg.Name(), span, optSpan)
			}
		}
	}
}

func TestExactGuards(t *testing.T) {
	big := make([]Item, 30)
	for i := range big {
		big[i] = Item{ID: model.RequestID(string(rune('a'+i%26)) + "x"), Weight: 1}
	}
	if _, err := (&Exact{}).Partition(big, 2); err == nil {
		t.Error("oversized instance accepted")
	}
	if _, err := (&Exact{MaxItems: 40}).Partition(big, 2); err != nil {
		t.Errorf("custom guard rejected: %v", err)
	}
}

func TestPartitionDoesNotMutateItems(t *testing.T) {
	is := items(5, 1, 4, 2, 3)
	snapshot := append([]Item(nil), is...)
	for _, alg := range allPartitioners() {
		if _, err := alg.Partition(is, 2); err != nil {
			t.Fatal(err)
		}
		for i := range is {
			if is[i] != snapshot[i] {
				t.Fatalf("%s mutated items", alg.Name())
			}
		}
	}
}

func TestMetricsHelpers(t *testing.T) {
	loads := []float64{3, 9, 6}
	if got := Makespan(loads); got != 9 {
		t.Errorf("Makespan = %v", got)
	}
	if got := Makespan(nil); got != 0 {
		t.Errorf("Makespan(nil) = %v", got)
	}
}

func TestScheduleAllIntegration(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.NumRequests = 120
	p, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, alg := range []Partitioner{RCKK{}, CGA{}, RoundRobin{}} {
		s, err := ScheduleAll(p, alg)
		if err != nil {
			t.Fatalf("%s: %v", alg.Name(), err)
		}
		if err := s.Validate(p); err != nil {
			t.Fatalf("%s produced invalid schedule: %v", alg.Name(), err)
		}
	}
}

func TestScheduleAllRejectsInvalidProblem(t *testing.T) {
	if _, err := ScheduleAll(&model.Problem{}, RCKK{}); err == nil {
		t.Error("invalid problem accepted")
	}
}

// TestScheduleValidRejectsFaultyIndex hands ScheduleValid the index
// model.Compile builds of an invalid problem, one with a zero-instance VNF
// that the partitioners could not split across: it must return Validate's
// fault, not partition.
func TestScheduleValidRejectsFaultyIndex(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.NumRequests = 20
	p, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p.VNFs[0].Instances = 0
	want := p.Validate()
	if want == nil {
		t.Fatal("zero-instance VNF passed Validate")
	}
	if _, err := ScheduleValid(model.Compile(p), RCKK{}); err == nil || err.Error() != "scheduling: "+want.Error() {
		t.Errorf("ScheduleValid = %v, want scheduling: %v", err, want)
	}
}

func TestRCKKPropertyAllAssigned(t *testing.T) {
	f := func(raw []uint8, m8 uint8) bool {
		m := int(m8%9) + 1
		is := make([]Item, len(raw))
		for i, b := range raw {
			is[i] = Item{ID: model.RequestID(string(rune('A'+i%26)) + string(rune('0'+i/26%10)) + string(rune('0'+i/260))), Weight: float64(b)}
		}
		assign, err := (RCKK{}).Partition(is, m)
		if err != nil || len(assign) != len(is) {
			return false
		}
		for _, k := range assign {
			if k < 0 || k >= m {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
