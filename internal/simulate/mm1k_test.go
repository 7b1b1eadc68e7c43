package simulate

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"nfvchain/internal/queueing"
)

// MM1K is a single-server queue with Poisson arrivals, exponential service,
// and room for at most K packets in the system (one in service plus K−1
// waiting). Arrivals finding the system full are dropped. It is the test
// oracle of the simulator's finite BufferSize mode (see
// TestFiniteBufferMatchesMM1K): the admission-control story of the paper
// quantified at packet granularity instead of job granularity.
//
// Unlike M/M/1, an M/M/1/K queue has a steady state for any ρ — overload
// shows up as blocking probability, not divergence.
type MM1K struct {
	Lambda float64 // arrival rate
	Mu     float64 // service rate
	K      int     // system capacity (≥ 1)
}

// Validate reports structurally invalid parameters.
func (q MM1K) Validate() error {
	if q.Lambda < 0 {
		return fmt.Errorf("queueing: negative arrival rate %v", q.Lambda)
	}
	if q.Mu <= 0 {
		return fmt.Errorf("queueing: service rate %v must be positive", q.Mu)
	}
	if q.K < 1 {
		return fmt.Errorf("queueing: system capacity %d must be >= 1", q.K)
	}
	return nil
}

// rho returns Λ/µ (may exceed 1; the chain remains ergodic).
func (q MM1K) rho() float64 { return q.Lambda / q.Mu }

// ProbJobs returns π(n), the steady-state probability of n packets in the
// system, for n in [0, K].
func (q MM1K) ProbJobs(n int) (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	if n < 0 || n > q.K {
		return 0, fmt.Errorf("queueing: state %d outside [0,%d]", n, q.K)
	}
	rho := q.rho()
	if rho == 1 {
		return 1 / float64(q.K+1), nil
	}
	return (1 - rho) * math.Pow(rho, float64(n)) / (1 - math.Pow(rho, float64(q.K+1))), nil
}

// BlockingProb returns π(K): the probability an arriving packet is dropped.
func (q MM1K) BlockingProb() (float64, error) {
	return q.ProbJobs(q.K)
}

// Throughput returns the accepted rate Λ·(1−π(K)).
func (q MM1K) Throughput() (float64, error) {
	b, err := q.BlockingProb()
	if err != nil {
		return 0, err
	}
	return q.Lambda * (1 - b), nil
}

// MeanJobs returns E[N] = Σ n·π(n).
func (q MM1K) MeanJobs() (float64, error) {
	if err := q.Validate(); err != nil {
		return 0, err
	}
	var mean float64
	for n := 0; n <= q.K; n++ {
		p, err := q.ProbJobs(n)
		if err != nil {
			return 0, err
		}
		mean += float64(n) * p
	}
	return mean, nil
}

// MeanResponseTime returns the mean sojourn of *accepted* packets:
// E[T] = E[N] / (Λ·(1−π(K))) by Little's law over the accepted stream.
func (q MM1K) MeanResponseTime() (float64, error) {
	jobs, err := q.MeanJobs()
	if err != nil {
		return 0, err
	}
	thr, err := q.Throughput()
	if err != nil {
		return 0, err
	}
	if thr == 0 {
		return 0, fmt.Errorf("queueing: zero throughput")
	}
	return jobs / thr, nil
}

// Utilization returns the server busy probability 1 − π(0).
func (q MM1K) Utilization() (float64, error) {
	p0, err := q.ProbJobs(0)
	if err != nil {
		return 0, err
	}
	return 1 - p0, nil
}

func TestMM1KProbSumsToOne(t *testing.T) {
	for _, q := range []MM1K{
		{Lambda: 3, Mu: 4, K: 5},
		{Lambda: 4, Mu: 4, K: 7},  // ρ = 1 uniform case
		{Lambda: 9, Mu: 4, K: 10}, // overloaded but ergodic
	} {
		var sum float64
		for n := 0; n <= q.K; n++ {
			p, err := q.ProbJobs(n)
			if err != nil {
				t.Fatal(err)
			}
			if p < 0 || p > 1 {
				t.Errorf("π(%d) = %v outside [0,1]", n, p)
			}
			sum += p
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("%+v: Σπ = %v", q, sum)
		}
	}
}

func TestMM1KRhoOneIsUniform(t *testing.T) {
	q := MM1K{Lambda: 5, Mu: 5, K: 4}
	for n := 0; n <= 4; n++ {
		p, err := q.ProbJobs(n)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(p-0.2) > 1e-12 {
			t.Errorf("π(%d) = %v, want uniform 0.2", n, p)
		}
	}
}

func TestMM1KConvergesToMM1(t *testing.T) {
	// For ρ < 1 and large K, M/M/1/K tends to M/M/1.
	lim := queueing.MM1{Lambda: 3, Mu: 5}
	fin := MM1K{Lambda: 3, Mu: 5, K: 200}
	wantJobs, _ := lim.MeanJobs()
	gotJobs, err := fin.MeanJobs()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotJobs-wantJobs) > 1e-6 {
		t.Errorf("MeanJobs = %v, want ≈%v", gotJobs, wantJobs)
	}
	wantT, _ := lim.MeanResponseTime()
	gotT, err := fin.MeanResponseTime()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gotT-wantT) > 1e-6 {
		t.Errorf("MeanResponseTime = %v, want ≈%v", gotT, wantT)
	}
	b, _ := fin.BlockingProb()
	if b > 1e-10 {
		t.Errorf("blocking %v should be negligible at K=200, ρ=0.6", b)
	}
}

func TestMM1KOverloadBlocks(t *testing.T) {
	q := MM1K{Lambda: 8, Mu: 4, K: 3}
	b, err := q.BlockingProb()
	if err != nil {
		t.Fatal(err)
	}
	// Heavily overloaded: blocking must be large; as Λ→∞, b→1−µ/Λ = 0.5.
	if b < 0.4 {
		t.Errorf("blocking = %v, want ≥ 0.4 at ρ=2", b)
	}
	thr, err := q.Throughput()
	if err != nil {
		t.Fatal(err)
	}
	if thr > q.Mu {
		t.Errorf("throughput %v exceeds service capacity %v", thr, q.Mu)
	}
	u, err := q.Utilization()
	if err != nil {
		t.Fatal(err)
	}
	if u < 0.9 {
		t.Errorf("overloaded utilization %v, want ≈1", u)
	}
}

func TestMM1KThroughputConservation(t *testing.T) {
	// Accepted rate = service completion rate = µ·P(server busy).
	f := func(l8, m8, k8 uint8) bool {
		q := MM1K{
			Lambda: 0.1 + float64(l8)/16,
			Mu:     0.1 + float64(m8)/16,
			K:      1 + int(k8%12),
		}
		thr, err1 := q.Throughput()
		u, err2 := q.Utilization()
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(thr-q.Mu*u) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMM1KValidation(t *testing.T) {
	if _, err := (MM1K{Lambda: -1, Mu: 1, K: 1}).BlockingProb(); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := (MM1K{Lambda: 1, Mu: 0, K: 1}).BlockingProb(); err == nil {
		t.Error("zero mu accepted")
	}
	if _, err := (MM1K{Lambda: 1, Mu: 1, K: 0}).BlockingProb(); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := (MM1K{Lambda: 1, Mu: 1, K: 3}).ProbJobs(4); err == nil {
		t.Error("state beyond K accepted")
	}
	if _, err := (MM1K{Lambda: 1, Mu: 1, K: 3}).ProbJobs(-1); err == nil {
		t.Error("negative state accepted")
	}
}
