package core

import (
	"fmt"
	"sort"

	"nfvchain/internal/model"
	"nfvchain/internal/queueing"
)

// InstanceEval holds the analytic steady-state view of one service instance.
type InstanceEval struct {
	VNF      model.VNFID
	Instance int
	// Arrival is Λ_k^f, the effective (retransmission-inflated) total rate.
	Arrival float64
	// RawArrival is Σ λ_r z_{r,k}^f without loss inflation.
	RawArrival float64
	// Utilization is ρ_k^f = Λ_k^f / µ_f (Eq. 9).
	Utilization float64
	// ResponseTime is W(f,k) per Eq. 11 (0 for an idle instance).
	ResponseTime float64
}

// Evaluation aggregates the paper's objectives for a solution.
type Evaluation struct {
	// Objective 1 (Eq. 13): mean load(v)/A_v over nodes in service.
	AvgUtilization float64
	// Eq. 14: Σ_v y_v.
	NodesInService int
	// Fig. 9 metric: total capacity of nodes in service.
	ResourceOccupation float64

	// Objective 2 (Eq. 15): W(f,k) averaged over loaded instances, per VNF
	// and overall.
	AvgResponseTime float64
	PerVNFResponse  map[model.VNFID]float64
	Instances       []InstanceEval

	// Eq. 16: Σ_r (chain response + (span−1)·L) over admitted requests.
	TotalLatency float64
	// PerRequestLatency is each admitted request's Eq. 16 term.
	PerRequestLatency map[model.RequestID]float64
}

// Evaluate computes the analytic objectives of a solution. It fails with
// queueing.ErrUnstable (wrapped) when any loaded instance has ρ ≥ 1 — which
// cannot happen after admission control.
func Evaluate(sol *Solution) (*Evaluation, error) {
	p := sol.Problem
	if err := sol.Placement.Validate(p); err != nil {
		return nil, fmt.Errorf("core: evaluate: %w", err)
	}
	sched := sol.Schedule.For(p)
	if err := sched.ValidatePartial(p); err != nil {
		return nil, fmt.Errorf("core: evaluate: %w", err)
	}

	ev := &Evaluation{
		AvgUtilization:     sol.Placement.AverageUtilization(p),
		NodesInService:     sol.Placement.NodesInService(),
		ResourceOccupation: sol.Placement.ResourceOccupation(p),
		PerVNFResponse:     make(map[model.VNFID]float64),
		PerRequestLatency:  make(map[model.RequestID]float64),
	}

	// Per-instance response times, W(f,k) of Eq. 11, from R_f in request
	// order on the schedule's index. w holds, per chain slot, W of the
	// instance serving it; the slots of rejected requests are never read.
	ix := sched.Index()
	w, inst := make([]float64, ix.Slots()), make([]int, ix.Slots())
	var grand float64
	var grandN int
	for fi, f := range p.VNFs {
		eff, raw := make([]float64, f.Instances), make([]float64, f.Instances)
		slots := ix.UserSlots(fi)
		for i, r := range ix.Users(fi) {
			req := &p.Requests[r]
			if k, ok := sched.At(int(slots[i])); ok {
				inst[slots[i]] = k
				eff[k] += req.EffectiveRate() // Λ_k^f, Eq. 7
				raw[k] += req.Rate
			}
		}
		base := len(ev.Instances)
		var sum float64
		var loaded int
		for k := 0; k < f.Instances; k++ {
			ie := InstanceEval{
				VNF:         f.ID,
				Instance:    k,
				Arrival:     eff[k],
				RawArrival:  raw[k],
				Utilization: eff[k] / f.ServiceRate,
			}
			if raw[k] > 0 {
				if eff[k] >= f.ServiceRate {
					return nil, fmt.Errorf("core: evaluate: vnf %s instance %d (Λ=%v, µ=%v): %w",
						f.ID, k, eff[k], f.ServiceRate, queueing.ErrUnstable)
				}
				// Eq. 11: W = ρ / ((1−ρ)·Σλ_raw); equals Eq. 12's
				// 1/(Pµ−Σλ) under uniform P.
				rho := ie.Utilization
				ie.ResponseTime = rho / ((1 - rho) * raw[k])
				sum += ie.ResponseTime
				loaded++
			}
			ev.Instances = append(ev.Instances, ie)
		}
		for _, s := range slots {
			w[s] = ev.Instances[base+inst[s]].ResponseTime
		}
		if loaded > 0 {
			ev.PerVNFResponse[f.ID] = sum / float64(loaded)
			grand += sum
			grandN += loaded
		}
	}
	if grandN > 0 {
		ev.AvgResponseTime = grand / float64(grandN)
	}

	// Eq. 16 over admitted requests, each chain summed in chain order.
	for r, req := range p.Requests {
		if !sched.Assigned(r) {
			continue // rejected
		}
		var lat float64
		lo, hi := ix.ChainSlots(r)
		for _, wk := range w[lo:hi] {
			lat += wk
		}
		span := sol.Placement.NodeSpan(req)
		if span > 1 {
			lat += float64(span-1) * sol.LinkDelay
		}
		ev.PerRequestLatency[req.ID] = lat
		ev.TotalLatency += lat
	}

	sort.Slice(ev.Instances, func(i, j int) bool {
		if ev.Instances[i].VNF != ev.Instances[j].VNF {
			return ev.Instances[i].VNF < ev.Instances[j].VNF
		}
		return ev.Instances[i].Instance < ev.Instances[j].Instance
	})
	return ev, nil
}

// MeanRequestLatency returns TotalLatency averaged over admitted requests
// (0 when none).
func (ev *Evaluation) MeanRequestLatency() float64 {
	if len(ev.PerRequestLatency) == 0 {
		return 0
	}
	return ev.TotalLatency / float64(len(ev.PerRequestLatency))
}
