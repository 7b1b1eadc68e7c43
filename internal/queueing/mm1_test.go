package queueing

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestMM1Basics(t *testing.T) {
	q := MM1{Lambda: 3, Mu: 4}
	if got := q.Utilization(); got != 0.75 {
		t.Errorf("Utilization = %v, want 0.75", got)
	}
	if !q.Stable() {
		t.Error("Stable() = false for ρ=0.75")
	}
	jobs, err := q.MeanJobs()
	if err != nil {
		t.Fatal(err)
	}
	if !close(jobs, 3, 1e-12) { // ρ/(1−ρ) = 0.75/0.25
		t.Errorf("MeanJobs = %v, want 3", jobs)
	}
	resp, err := q.MeanResponseTime()
	if err != nil {
		t.Fatal(err)
	}
	if !close(resp, 1, 1e-12) { // 1/(4−3)
		t.Errorf("MeanResponseTime = %v, want 1", resp)
	}
	wait, err := q.MeanWaitingTime()
	if err != nil {
		t.Fatal(err)
	}
	if !close(wait, 0.75, 1e-12) {
		t.Errorf("MeanWaitingTime = %v, want 0.75", wait)
	}
}

func TestMM1LittlesLaw(t *testing.T) {
	f := func(lu, mu8 uint8) bool {
		mu := 1 + float64(mu8)
		lambda := float64(lu) / 256 * mu // always < mu
		q := MM1{Lambda: lambda, Mu: mu}
		jobs, err1 := q.MeanJobs()
		resp, err2 := q.MeanResponseTime()
		if err1 != nil || err2 != nil {
			return false
		}
		return close(jobs, lambda*resp, 1e-9) // Little's law, L = λW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMM1Unstable(t *testing.T) {
	for _, q := range []MM1{{Lambda: 4, Mu: 4}, {Lambda: 5, Mu: 4}} {
		if q.Stable() {
			t.Errorf("%+v reported stable", q)
		}
		if _, err := q.MeanJobs(); !errors.Is(err, ErrUnstable) {
			t.Errorf("MeanJobs err = %v, want ErrUnstable", err)
		}
		if _, err := q.MeanResponseTime(); !errors.Is(err, ErrUnstable) {
			t.Errorf("MeanResponseTime err = %v, want ErrUnstable", err)
		}
		if _, err := q.MeanWaitingTime(); !errors.Is(err, ErrUnstable) {
			t.Errorf("MeanWaitingTime err = %v, want ErrUnstable", err)
		}
	}
}

func TestMM1Validate(t *testing.T) {
	if _, err := (MM1{Lambda: -1, Mu: 2}).MeanJobs(); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := (MM1{Lambda: 1, Mu: 0}).MeanJobs(); err == nil {
		t.Error("zero mu accepted")
	}
}

func TestMM1ProbJobs(t *testing.T) {
	q := MM1{Lambda: 1, Mu: 2} // ρ = 0.5
	var total float64
	for n := 0; n < 60; n++ {
		p, err := q.ProbJobs(n)
		if err != nil {
			t.Fatal(err)
		}
		want := 0.5 * math.Pow(0.5, float64(n))
		if !close(p, want, 1e-12) {
			t.Errorf("ProbJobs(%d) = %v, want %v", n, p, want)
		}
		total += p
	}
	if !close(total, 1, 1e-9) {
		t.Errorf("Σπ(n) = %v, want ≈1", total)
	}
	if _, err := q.ProbJobs(-1); err == nil {
		t.Error("negative n accepted")
	}
	if _, err := (MM1{Lambda: 3, Mu: 2}).ProbJobs(0); !errors.Is(err, ErrUnstable) {
		t.Error("unstable ProbJobs should fail")
	}
}

func TestMM1ProbJobsMatchesMeanJobs(t *testing.T) {
	q := MM1{Lambda: 2, Mu: 5}
	var mean float64
	for n := 0; n < 200; n++ {
		p, _ := q.ProbJobs(n)
		mean += float64(n) * p
	}
	want, _ := q.MeanJobs()
	if !close(mean, want, 1e-9) {
		t.Errorf("Σ n·π(n) = %v, MeanJobs = %v", mean, want)
	}
}

func TestMM1ResponseTimeQuantile(t *testing.T) {
	q := MM1{Lambda: 1, Mu: 2}
	med, err := q.ResponseTimeQuantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !close(med, math.Ln2, 1e-12) { // exp(rate 1) median = ln 2
		t.Errorf("median = %v, want ln2", med)
	}
	p99, _ := q.ResponseTimeQuantile(0.99)
	if p99 <= med {
		t.Error("p99 not above median")
	}
	if _, err := q.ResponseTimeQuantile(1); err == nil {
		t.Error("quantile 1 accepted")
	}
	if _, err := q.ResponseTimeQuantile(-0.1); err == nil {
		t.Error("negative quantile accepted")
	}
}

func TestEffectiveRate(t *testing.T) {
	if got, err := EffectiveRate(10, 0.5); err != nil || got != 20 {
		t.Errorf("EffectiveRate = %v, %v", got, err)
	}
	if got, err := EffectiveRate(10, 1); err != nil || got != 10 {
		t.Errorf("EffectiveRate P=1 = %v, %v", got, err)
	}
	if _, err := EffectiveRate(-1, 0.5); err == nil {
		t.Error("negative rate accepted")
	}
	if _, err := EffectiveRate(1, 0); err == nil {
		t.Error("P=0 accepted")
	}
	if _, err := EffectiveRate(1, 1.1); err == nil {
		t.Error("P>1 accepted")
	}
}

func TestInstanceResponseTime(t *testing.T) {
	// Eq. 12 with P=1: W = 1/(µ − Σλ).
	w, err := InstanceResponseTime(10, 1, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !close(w, 0.2, 1e-12) {
		t.Errorf("W = %v, want 0.2", w)
	}
	// With P=0.98 the denominator shrinks: W = 1/(0.98·10 − 5).
	w2, err := InstanceResponseTime(10, 0.98, []float64{2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !close(w2, 1/(9.8-5), 1e-12) {
		t.Errorf("W(P=0.98) = %v", w2)
	}
	if w2 <= w {
		t.Error("loss must increase response time")
	}

	if _, err := InstanceResponseTime(10, 1, []float64{11}); !errors.Is(err, ErrUnstable) {
		t.Errorf("overload err = %v, want ErrUnstable", err)
	}
	if _, err := InstanceResponseTime(0, 1, nil); err == nil {
		t.Error("zero mu accepted")
	}
	if _, err := InstanceResponseTime(1, 2, nil); err == nil {
		t.Error("P>1 accepted")
	}
	if _, err := InstanceResponseTime(1, 1, []float64{-1}); err == nil {
		t.Error("negative rate accepted")
	}
}

func TestTandemWithLossResponseTime(t *testing.T) {
	// Paper Fig. 3: E[T] = 1/(Pµ1−λ0) + 1/(Pµ2−λ0).
	got, err := TandemWithLossResponseTime(1, 0.5, []float64{4, 6})
	if err != nil {
		t.Fatal(err)
	}
	want := 1/(0.5*4-1) + 1/(0.5*6-1)
	if !close(got, want, 1e-12) {
		t.Errorf("tandem = %v, want %v", got, want)
	}
	if _, err := TandemWithLossResponseTime(1, 0.5, nil); err == nil {
		t.Error("empty tandem accepted")
	}
	if _, err := TandemWithLossResponseTime(3, 0.5, []float64{4}); !errors.Is(err, ErrUnstable) {
		t.Error("overloaded tandem should be unstable")
	}
}

func TestMergeRates(t *testing.T) {
	if got := MergeRates(1, 2, 3.5); got != 6.5 {
		t.Errorf("MergeRates = %v", got)
	}
	if got := MergeRates(); got != 0 {
		t.Errorf("MergeRates() = %v", got)
	}
}

func close(a, b, eps float64) bool { return math.Abs(a-b) <= eps }
