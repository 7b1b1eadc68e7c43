package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
	c := New(43)
	same := true
	a2 := New(42)
	for i := 0; i < 10; i++ {
		if a2.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
}

func TestDeriveIndependence(t *testing.T) {
	x := Derive(1, "placement")
	y := Derive(1, "scheduling")
	xx := Derive(1, "placement")
	diverged := false
	for i := 0; i < 20; i++ {
		vx, vy := x.Float64(), y.Float64()
		if vx != xx.Float64() {
			t.Fatal("Derive not deterministic for equal labels")
		}
		if vx != vy {
			diverged = true
		}
	}
	if !diverged {
		t.Error("derived streams with different labels are identical")
	}
}

func TestUniformRange(t *testing.T) {
	s := New(7)
	for i := 0; i < 1000; i++ {
		v := s.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform(2,5) = %v out of range", v)
		}
	}
}

func TestUniformIntRange(t *testing.T) {
	s := New(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := s.UniformInt(3, 6)
		if v < 3 || v > 6 {
			t.Fatalf("UniformInt(3,6) = %d out of range", v)
		}
		seen[v] = true
	}
	for v := 3; v <= 6; v++ {
		if !seen[v] {
			t.Errorf("UniformInt never produced %d in 1000 draws", v)
		}
	}
	if got := New(1).UniformInt(5, 5); got != 5 {
		t.Errorf("UniformInt(5,5) = %d, want 5", got)
	}
}

func TestUniformIntPanicsOnInvertedBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("UniformInt(5,4) did not panic")
		}
	}()
	New(1).UniformInt(5, 4)
}

func TestExpMean(t *testing.T) {
	s := New(11)
	const n = 200000
	rate := 4.0
	var sum float64
	for i := 0; i < n; i++ {
		v := s.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp produced negative value %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("Exp(4) sample mean = %v, want ≈0.25", mean)
	}
}

func TestExpPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Exp(0) did not panic")
		}
	}()
	New(1).Exp(0)
}

func TestLogNormalPositive(t *testing.T) {
	s := New(13)
	var sum float64
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.LogNormal(0, 0.5)
		if v <= 0 {
			t.Fatalf("LogNormal produced non-positive %v", v)
		}
		sum += v
	}
	want := math.Exp(0.125) // exp(mu + sigma^2/2)
	if math.Abs(sum/n-want) > 0.02 {
		t.Errorf("LogNormal mean = %v, want ≈%v", sum/n, want)
	}
}

func TestBernoulli(t *testing.T) {
	s := New(17)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bernoulli(0.3) {
			hits++
		}
	}
	p := float64(hits) / n
	if math.Abs(p-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %v", p)
	}
	if New(1).Bernoulli(0) {
		t.Error("Bernoulli(0) returned true")
	}
}

func TestWeightedIndexProportions(t *testing.T) {
	s := New(21)
	weights := []float64{1, 2, 7}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.WeightedIndex(weights)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("weight %d frequency = %v, want ≈%v", i, got, want)
		}
	}
}

func TestWeightedIndexEdgeCases(t *testing.T) {
	s := New(3)
	if got := s.WeightedIndex(nil); got != -1 {
		t.Errorf("WeightedIndex(nil) = %d, want -1", got)
	}
	if got := s.WeightedIndex([]float64{0, 0}); got != -1 {
		t.Errorf("WeightedIndex(zeros) = %d, want -1", got)
	}
	if got := s.WeightedIndex([]float64{0, 5, 0}); got != 1 {
		t.Errorf("WeightedIndex single positive = %d, want 1", got)
	}
}

func TestWeightedIndexPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WeightedIndex with negative weight did not panic")
		}
	}()
	New(1).WeightedIndex([]float64{1, -1})
}

func TestWeightedIndexAlwaysInRange(t *testing.T) {
	s := New(99)
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		weights := make([]float64, len(raw))
		var sum float64
		for i, b := range raw {
			weights[i] = float64(b)
			sum += weights[i]
		}
		got := s.WeightedIndex(weights)
		if sum == 0 {
			return got == -1
		}
		return got >= 0 && got < len(weights) && weights[got] > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(31)
	p := s.Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm(50) invalid: %v", p)
		}
		seen[v] = true
	}
}

func TestShuffleKeepsElements(t *testing.T) {
	s := New(33)
	xs := []int{1, 2, 3, 4, 5}
	sum := 0
	s.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	for _, v := range xs {
		sum += v
	}
	if sum != 15 {
		t.Errorf("Shuffle lost elements: %v", xs)
	}
}
