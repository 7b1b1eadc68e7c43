package simulate

import (
	"math"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
	"nfvchain/internal/workload"
)

// FuzzConfigValidate throws adversarial numeric knobs — negative, NaN, ±Inf
// — at Reset and asserts the contract: every configuration either fails
// validation with an error or produces a runnable simulation; nothing
// panics. The sweep covers the fault plan (random faults, overlapping and
// zero-length outages, correlated preemption with arbitrary group sizes and
// lead times), the one Controller field (its tick interval, where 0 means no
// ticks, shedding, live migration)
// and the arrival tier (custom per-request sources of every process shape
// plus the ExpectedArrivals sizing hint). Runs are only attempted for
// configurations Reset accepted AND whose timing knobs cannot livelock the
// event loop (a pathologically tiny retransmit delay, MTTR, preemption
// interval or control interval is valid but makes the agenda grind through
// billions of events, which a fuzzer must not wait on); source parameters
// are clamped into live ranges for the same reason.
func FuzzConfigValidate(f *testing.F) {
	f.Add(10.0, 1.0, 0.001, 0.005, 20.0, 4.0, 0, 0, 0, false,
		5.0, 1.0, 0.5, 1.0, 2.0, 3.0, 1, false, false, false,
		0, 40.0, 0.5, 0, false)
	f.Add(-1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, 0, 0, false,
		0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0, false, false, false,
		1, 0.0, 0.0, -1, true)
	f.Add(math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), 1, 1, 4, true,
		math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN(), -1, true, true, true,
		2, math.NaN(), math.Inf(1), -7, true)
	f.Add(math.Inf(1), 0.0, 0.0, 0.0, math.Inf(1), 1.0, 0, 1, 0, true,
		math.Inf(1), math.Inf(-1), 0.0, math.Inf(1), 0.0, math.Inf(1), 99, true, false, true,
		-3, math.Inf(-1), 1e30, 1<<30, true)
	f.Add(5.0, -2.0, -0.5, 1e-12, -3.0, math.Inf(-1), 2, -1, -7, true,
		1e-12, 1e-12, -1.0, 1e-12, -2.0, 0.0, 0, true, true, false,
		1, 80.0, 0.9, 5000, true)
	f.Add(50.0, 5.0, 0.002, 0.01, math.Inf(1), 2.0, 1, 0, 2, true,
		4.0, 0.5, 0.25, 0.5, 1.0, 0.0, 2, true, true, true,
		2, 3.0, 6.0, 100000, true)
	// Overlapping outages on the same node plus full-cluster preemption under
	// an actively migrating control plane.
	f.Add(20.0, 1.0, 0.001, 0.01, 0.0, 0.0, 0, 0, 0, true,
		3.0, 0.8, 0.3, 0.7, 2.0, 4.0, 8, true, true, true,
		0, 25.0, 0.1, 1000, true)

	f.Fuzz(func(t *testing.T, horizon, warmup, linkDelay, retransmitDelay,
		mtbf, mttr float64, dropPolicy, failPolicy, bufferSize int, withFaults bool,
		preemptInterval, recovery, leadTime, controlInterval, outDown, outLen float64,
		groupSize int, withPreempt, withControl, withOutages bool,
		sourceKind int, srcA, srcB float64, expectedArrivals int, withSources bool) {
		prob, sched, pl := faultProblem(40, 100)
		cfg := Config{
			Problem:          prob,
			Schedule:         sched,
			Placement:        pl,
			LinkDelay:        linkDelay,
			Horizon:          horizon,
			Warmup:           warmup,
			BufferSize:       bufferSize,
			DropPolicy:       DropPolicy(dropPolicy),
			FailurePolicy:    FailurePolicy(failPolicy),
			RetransmitDelay:  retransmitDelay,
			ExpectedArrivals: expectedArrivals,
			Seed:             1,
		}
		if withSources {
			// Clamp the process knobs into live ranges: the contract under fuzz
			// is that any *accepted* source config runs without panicking, and
			// unclamped rates would make a run take unbounded time rather than
			// fail. The rate ceiling keeps the offered load below the fixture's
			// service rate (100 pps) so accepted runs finish well inside the
			// fuzzer's per-input hang limit; degenerate numeric inputs still
			// reach validation through the plain config fields above.
			clamp := func(v, lo, hi float64) float64 {
				if math.IsNaN(v) || v < lo {
					return lo
				}
				if v > hi {
					return hi
				}
				return v
			}
			rate := clamp(srcA, 1, 25)
			srcs := make(map[model.RequestID]workload.Source, len(prob.Requests))
			for _, r := range prob.Requests {
				st := rng.Derive(1, "fuzz/src/"+string(r.ID))
				switch ((sourceKind % 3) + 3) % 3 {
				case 0:
					srcs[r.ID] = workload.NewPoisson(rate, st)
				case 1:
					rf, peak := workload.Diurnal(rate, clamp(srcB, 0, 0.9), clamp(srcA+srcB, 0.5, 100), 0)
					srcs[r.ID] = workload.NewNHPP(rf, peak, st)
				case 2:
					srcs[r.ID] = workload.NewMMPP(rate, clamp(srcA, 0.1, 10), clamp(srcB, 0.1, 10), st)
				}
			}
			cfg.Arrivals = workload.NewMergedStream(srcs)
		}
		if withFaults || withPreempt || withOutages {
			cfg.FaultPlan = &FaultPlan{}
			if withFaults {
				cfg.FaultPlan.MTBF, cfg.FaultPlan.MTTR = mtbf, mttr
			}
			if withPreempt {
				cfg.FaultPlan.Preemption = &PreemptionPlan{
					MeanInterval: preemptInterval,
					GroupSize:    groupSize,
					Recovery:     recovery,
					LeadTime:     leadTime,
				}
			}
			if withOutages {
				// Overlapping intervals on one node (zero-length when outLen
				// is 0 — validation must reject those cleanly) plus a second
				// node's outage.
				cfg.FaultPlan.Outages = []Outage{
					{Node: "a", DownAt: outDown, UpAt: outDown + outLen},
					{Node: "a", DownAt: outDown + outLen/2, UpAt: outDown + 1.5*outLen},
					{Node: "b", DownAt: outDown, UpAt: outDown + outLen},
				}
			}
		}
		if withControl {
			// A live controller: shed a quarter of admissions and bounce f's first
			// instance between the two nodes — deterministic, and exercising
			// the migration freeze/resume machinery under every fault mix.
			tick := 0
			cfg.Controller = onTick(func(now float64, cp *ControlPlane) {
				_ = cp.SetShedFraction(0.25)
				target := model.NodeID("a")
				if tick%2 == 0 {
					target = "b"
				}
				tick++
				_ = cp.MigrateInstance("f", 0, target, now+0.01)
			})
			cfg.ControlInterval = controlInterval
		}
		sim := NewSimulator()
		if err := sim.Reset(cfg); err != nil {
			return // rejected cleanly — the contract holds
		}
		// Validation passed; make sure the accepted config is actually
		// runnable — but only when it cannot livelock the fuzzer.
		if horizon > 100 {
			return
		}
		retransmitting := cfg.DropPolicy == DropRetransmit ||
			(cfg.FaultPlan != nil && cfg.FailurePolicy == FailRetransmit)
		if retransmitting && retransmitDelay < 1e-3 {
			return
		}
		if cfg.FaultPlan != nil && cfg.FaultPlan.randomFaults() && (mtbf < 1e-3 || mttr < 1e-3) {
			return
		}
		if withPreempt && preemptInterval < 1e-2 {
			return
		}
		if withControl && controlInterval > 0 && controlInterval < 1e-2 {
			return
		}
		res, err := sim.Run()
		if err != nil {
			t.Fatalf("Reset accepted config but Run failed: %v", err)
		}
		if res.Availability < 0 || res.Availability > 1 || math.IsNaN(res.Availability) {
			t.Fatalf("availability %v out of [0,1]", res.Availability)
		}
		lost := res.FailureDrops + res.Shed
		if cfg.DropPolicy == DropDiscard {
			lost += res.Dropped
		}
		if got := res.Delivered + res.InFlight + lost; got != res.Generated {
			t.Fatalf("conservation violated: delivered %d + inflight %d + lost %d = %d, want %d",
				res.Delivered, res.InFlight, lost, got, res.Generated)
		}
	})
}
