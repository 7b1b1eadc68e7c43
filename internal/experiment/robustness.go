package experiment

import (
	"fmt"

	"nfvchain/internal/model"
	"nfvchain/internal/queueing"
	"nfvchain/internal/simulate"
)

// Robustness probes the paper's central modeling assumption: every service
// instance is an M/M/1 queue. The simulator runs one instance at utilization
// ρ under three service-time distributions with identical mean rate —
// deterministic (CV 0), exponential (CV 1, the model's assumption) and
// heavy-tailed lognormal (CV ≈ 1.31) — and the table reports the relative
// error of the Eq. 12 (M/M/1) latency prediction against the simulated
// truth. Exponential error hovers near zero; deterministic shows the model
// overestimating (up to ~2× at high ρ, the Pollaczek–Khinchine factor);
// lognormal shows it underestimating. Notes record how much of the gap
// Kingman's G/G/1 formula recovers.
func Robustness(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "robustness",
		Title:  "M/M/1 model error vs service-time distribution (one instance, λ varies, µ=100)",
		XLabel: "utilization",
		YLabel: "relative error of Eq. 12 prediction",
	}
	const mu = 100.0
	dists := []struct {
		name string
		d    simulate.ServiceDist
	}{
		{"deterministic", simulate.ServiceDeterministic},
		{"exponential", simulate.ServiceExponential},
		{"lognormal", simulate.ServiceLogNormal},
	}
	var kingmanWorst float64
	// One reusable simulator serves every (ρ, distribution) cell: each Reset
	// retains the agenda, packet arena, ring buffers and sample slice of the
	// previous run, so the 15 long-horizon runs allocate run state once. The
	// Results is consumed before the next Reset, as the contract requires.
	sim := simulate.NewSimulator()
	for _, rho := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		lambda := rho * mu
		for _, dist := range dists {
			prob := &model.Problem{
				Nodes:    []model.Node{{ID: "n", Capacity: 1}},
				VNFs:     []model.VNF{{ID: "f", Instances: 1, Demand: 0.5, ServiceRate: mu}},
				Requests: []model.Request{{ID: "r", Chain: []model.VNFID{"f"}, Rate: lambda, DeliveryProb: 1}},
			}
			sched := model.NewSchedule(model.Compile(prob))
			sched.Assign("r", "f", 0)
			if err := sim.Reset(simulate.Config{
				Problem: prob, Schedule: sched,
				Horizon: 2000, Warmup: 100,
				ServiceDist: dist.d, Seed: cfg.Seed + uint64(rho*100),
			}); err != nil {
				return nil, fmt.Errorf("experiment: robustness (ρ=%.1f, %s): %w", rho, dist.name, err)
			}
			res, err := sim.Run()
			if err != nil {
				return nil, fmt.Errorf("experiment: robustness (ρ=%.1f, %s): %w", rho, dist.name, err)
			}
			measured := res.Latency.Mean()
			mm1, err := (queueing.MM1{Lambda: lambda, Mu: mu}).MeanResponseTime()
			if err != nil {
				return nil, err
			}
			t.AddPoint(dist.name, rho, (mm1-measured)/measured)

			kg, err := (queueing.Kingman{Lambda: lambda, Mu: mu, CA: 1, CS: dist.d.CV()}).MeanResponseTime()
			if err != nil {
				return nil, err
			}
			if e := abs((kg - measured) / measured); e > kingmanWorst {
				kingmanWorst = e
			}
		}
	}
	t.Note("Kingman's G/G/1 formula tracks every distribution within %.1f%%", kingmanWorst*100)
	t.Note("Eq. 12 is exact only under exponential service; deterministic service halves the wait, heavy tails inflate it")
	return t, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
