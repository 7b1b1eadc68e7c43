package queueing

import (
	"errors"
	"fmt"
	"math"
)

// JacksonNetwork is an open network of single-server exponential stations.
// Station i receives external Poisson arrivals at rate External[i]; a packet
// finishing service at station i moves to station j with probability
// Routing[i][j] and leaves the network with probability 1 − Σ_j Routing[i][j].
// Retransmission feedback (the paper's NACK loop) is expressed as a routing
// entry back toward an earlier station.
type JacksonNetwork struct {
	External    []float64   // λ0_i ≥ 0
	ServiceRate []float64   // µ_i > 0
	Routing     [][]float64 // row-substochastic matrix
}

// Validate checks dimensions, parameter signs, and substochastic rows.
func (n *JacksonNetwork) Validate() error {
	k := len(n.ServiceRate)
	if k == 0 {
		return errors.New("queueing: empty jackson network")
	}
	if len(n.External) != k || len(n.Routing) != k {
		return fmt.Errorf("queueing: dimension mismatch: %d stations, %d external, %d routing rows",
			k, len(n.External), len(n.Routing))
	}
	for i := 0; i < k; i++ {
		if n.External[i] < 0 {
			return fmt.Errorf("queueing: station %d negative external rate %v", i, n.External[i])
		}
		if n.ServiceRate[i] <= 0 {
			return fmt.Errorf("queueing: station %d service rate %v must be positive", i, n.ServiceRate[i])
		}
		if len(n.Routing[i]) != k {
			return fmt.Errorf("queueing: routing row %d has %d entries, want %d", i, len(n.Routing[i]), k)
		}
		var row float64
		for j, p := range n.Routing[i] {
			if p < 0 || p > 1 {
				return fmt.Errorf("queueing: routing[%d][%d] = %v outside [0,1]", i, j, p)
			}
			row += p
		}
		if row > 1+1e-9 {
			return fmt.Errorf("queueing: routing row %d sums to %v > 1", i, row)
		}
	}
	return nil
}

// TrafficRates solves the traffic equations λ_i = λ0_i + Σ_j λ_j·P_ji
// (Kleinrock's flow-merge over the whole network) by Gaussian elimination of
// (I − Pᵀ)·λ = λ0. An error is returned when the system is singular, which
// happens only for pathological routing (e.g. a lossless closed loop).
func (n *JacksonNetwork) TrafficRates() ([]float64, error) {
	if err := n.Validate(); err != nil {
		return nil, err
	}
	k := len(n.ServiceRate)
	// Build A = I − Pᵀ and b = λ0.
	a := make([][]float64, k)
	b := make([]float64, k)
	for i := 0; i < k; i++ {
		a[i] = make([]float64, k)
		for j := 0; j < k; j++ {
			a[i][j] = -n.Routing[j][i]
		}
		a[i][i] += 1
		b[i] = n.External[i]
	}
	lam, err := solveLinear(a, b)
	if err != nil {
		return nil, fmt.Errorf("queueing: traffic equations: %w", err)
	}
	for i, v := range lam {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("queueing: non-finite result %v", v)
		}
		if v < -1e-9 {
			return nil, fmt.Errorf("queueing: negative traffic rate λ_%d = %v", i, v)
		}
		if v < 0 {
			lam[i] = 0
		}
	}
	return lam, nil
}

// StationMetrics holds the steady-state quantities of one station.
type StationMetrics struct {
	Arrival      float64 // λ_i from the traffic equations
	Utilization  float64 // ρ_i
	MeanJobs     float64 // E[N_i]
	ResponseTime float64 // E[T_i]
}

// Solve computes per-station steady-state metrics. ErrUnstable is returned
// when any station has ρ ≥ 1.
func (n *JacksonNetwork) Solve() ([]StationMetrics, error) {
	lam, err := n.TrafficRates()
	if err != nil {
		return nil, err
	}
	out := make([]StationMetrics, len(lam))
	for i, l := range lam {
		q := MM1{Lambda: l, Mu: n.ServiceRate[i]}
		if !q.Stable() {
			return nil, fmt.Errorf("station %d (λ=%v, µ=%v): %w", i, l, n.ServiceRate[i], ErrUnstable)
		}
		jobs, err := q.MeanJobs()
		if err != nil {
			return nil, err
		}
		resp, err := q.MeanResponseTime()
		if err != nil {
			return nil, err
		}
		out[i] = StationMetrics{
			Arrival:      l,
			Utilization:  q.Utilization(),
			MeanJobs:     jobs,
			ResponseTime: resp,
		}
	}
	return out, nil
}

// MeanJobs returns Σ_i E[N_i], the steady-state mean population.
func (n *JacksonNetwork) MeanJobs() (float64, error) {
	ms, err := n.Solve()
	if err != nil {
		return 0, err
	}
	var sum float64
	for _, m := range ms {
		sum += m.MeanJobs
	}
	return sum, nil
}

// MeanResponseTime returns the network-wide mean sojourn time of an external
// arrival, E[T] = Σ E[N_i] / Σ λ0_i (Little's law applied to the whole
// network).
func (n *JacksonNetwork) MeanResponseTime() (float64, error) {
	jobs, err := n.MeanJobs()
	if err != nil {
		return 0, err
	}
	var ext float64
	for _, l := range n.External {
		ext += l
	}
	if ext == 0 {
		return 0, errors.New("queueing: no external arrivals")
	}
	return jobs / ext, nil
}

// StationaryProb returns the product-form probability of observing the given
// joint queue lengths: Π_i (1−ρ_i)·ρ_i^{n_i} (Jackson's theorem).
func (n *JacksonNetwork) StationaryProb(state []int) (float64, error) {
	ms, err := n.Solve()
	if err != nil {
		return 0, err
	}
	if len(state) != len(ms) {
		return 0, fmt.Errorf("queueing: state has %d entries, want %d", len(state), len(ms))
	}
	prob := 1.0
	for i, ni := range state {
		if ni < 0 {
			return 0, fmt.Errorf("queueing: negative queue length %d at station %d", ni, i)
		}
		rho := ms[i].Utilization
		prob *= (1 - rho) * math.Pow(rho, float64(ni))
	}
	return prob, nil
}

// ChainNetwork builds the Jackson network of the paper's Fig. 3: a tandem of
// stations with service rates mus, external arrivals lambda0 entering the
// first station, and the last station feeding back to the first with
// probability 1−p (the retransmission loop).
func ChainNetwork(lambda0, p float64, mus []float64) (*JacksonNetwork, error) {
	if len(mus) == 0 {
		return nil, errors.New("queueing: empty chain")
	}
	if p <= 0 || p > 1 {
		return nil, fmt.Errorf("queueing: delivery probability %v outside (0,1]", p)
	}
	k := len(mus)
	n := &JacksonNetwork{
		External:    make([]float64, k),
		ServiceRate: append([]float64(nil), mus...),
		Routing:     make([][]float64, k),
	}
	n.External[0] = lambda0
	for i := range n.Routing {
		n.Routing[i] = make([]float64, k)
		if i+1 < k {
			n.Routing[i][i+1] = 1
		}
	}
	n.Routing[k-1][0] = 1 - p // NACK feedback to the source-side station
	return n, nil
}
