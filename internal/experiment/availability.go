package experiment

import (
	"fmt"
	"math"
	"sync"

	"nfvchain/internal/control"
	"nfvchain/internal/placement"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/simulate"
	"nfvchain/internal/stats"
	"nfvchain/internal/workload"
)

// availabilityModes are the node-transition rungs of the control ladder
// compared at every failure rate, with the figure's label for each: the
// repair rung is labelled by the mechanism it adds, "replace".
var availabilityModes = []struct {
	policy control.Policy
	label  string
}{
	{control.PolicyNone, "none"},
	{control.PolicyReschedule, "reschedule"},
	{control.PolicyRepair, "replace"},
}

// Availability quantifies what the paper's steady-state model leaves out:
// node failures. A BFDSU-placed, RCKK-scheduled deployment is simulated
// under increasing random failure rates (MTBF from ∞ down to the horizon
// itself, MTTR = horizon/6) crossed with the three node-transition rungs of
// internal/control, using the same seed per (rate, trial) cell so every mode
// faces the identical fault sample path. Reported per mode: availability
// (delivered/offered), mean latency, and p99 latency. Because the paper's
// placement hosts all of a VNF's instances on one node, reschedule-only
// repair has no survivors to rebalance onto after a failure and tracks the
// no-repair baseline; reschedule+replace boots ClickOS-cost replicas on
// surviving nodes and recovers most of the lost availability.
func Availability(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "availability",
		Title:  "Availability under node failures × repair mode (BFDSU+RCKK, MTTR=horizon/6, ClickOS setup)",
		XLabel: "expected failures per node per horizon (horizon/MTBF)",
		YLabel: "availability (delivered/offered)",
	}
	const (
		horizon = 20.0
		warmup  = 1.0
	)
	mttr := horizon / 6
	// MTBF = factor × horizon; +Inf disables random faults (the baseline).
	factors := []float64{math.Inf(1), 10, 3, 1}

	type modeResult struct {
		avail, meanW, p99 float64
		p99ok             bool
		repaired          control.Stats
	}
	// Each (point, trial) cell runs 3 fault-injected simulations; recycling
	// simulators across cells keeps the packet arena, agenda and fault
	// tables warm instead of reallocating them 3×points×trials times.
	// Results alias the simulator's buffers, so each cell extracts its
	// scalars before returning the simulator to the pool.
	simPool := sync.Pool{New: func() any { return simulate.NewSimulator() }}
	perPoint, err := forEachPointTrial(len(factors), cfg.PlacementTrials,
		func(point, trial int) ([3]modeResult, error) {
			var out [3]modeResult
			seed := cfg.Seed + uint64(trial)*2654435761
			wcfg := workload.DefaultConfig()
			wcfg.Seed = seed
			wcfg.NumVNFs = 8
			wcfg.NumRequests = 40
			wcfg.NumNodes = 6
			wcfg.RateMax = 40
			prob, err := workload.Generate(wcfg)
			if err != nil {
				return out, fmt.Errorf("availability: %w", err)
			}
			placed, err := (&placement.BFDSU{Seed: seed}).Place(prob)
			if err != nil {
				return out, fmt.Errorf("availability: %w", err)
			}
			sched, err := scheduling.ScheduleAll(prob, scheduling.RCKK{})
			if err != nil {
				return out, fmt.Errorf("availability: %w", err)
			}
			sim := simPool.Get().(*simulate.Simulator)
			defer simPool.Put(sim)
			plan := &simulate.FaultPlan{MTBF: factors[point] * horizon, MTTR: mttr}
			for mi, mode := range availabilityModes {
				ctrl, err := control.New(control.Config{
					Problem:   prob,
					Placement: placed.Placement,
					Schedule:  sched,
					Policy:    mode.policy,
					SetupCost: control.SetupCostClickOS,
					Seed:      seed,
				})
				if err != nil {
					return out, fmt.Errorf("availability: %w", err)
				}
				if err := sim.Reset(simulate.Config{
					Problem:    prob,
					Schedule:   sched,
					Placement:  placed.Placement,
					Horizon:    horizon,
					Warmup:     warmup,
					LinkDelay:  0.001,
					Seed:       seed,
					FaultPlan:  plan,
					Controller: ctrl,
				}); err != nil {
					return out, fmt.Errorf("availability: %w", err)
				}
				res, err := sim.Run()
				if err != nil {
					return out, fmt.Errorf("availability: %w", err)
				}
				p99, ok := stats.PercentileOK(res.LatencySamples, 99)
				out[mi] = modeResult{
					avail:    res.Availability,
					meanW:    res.Latency.Mean(),
					p99:      p99,
					p99ok:    ok,
					repaired: ctrl.Stats(),
				}
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}

	var replacementsTotal, replacementsFailed int
	for pi, factor := range factors {
		x := 0.0 // expected failures per node per horizon
		if !math.IsInf(factor, 1) {
			x = 1 / factor
		}
		for mi, mode := range availabilityModes {
			var avail, meanW, p99 float64
			p99n := 0
			for _, tr := range perPoint[pi] {
				avail += tr[mi].avail
				meanW += tr[mi].meanW
				if tr[mi].p99ok {
					p99 += tr[mi].p99
					p99n++
				}
				replacementsTotal += tr[mi].repaired.Replacements
				replacementsFailed += tr[mi].repaired.ReplacementsFailed
			}
			n := float64(len(perPoint[pi]))
			t.AddPoint("availability ("+mode.label+")", x, avail/n)
			t.AddPoint("mean latency ("+mode.label+")", x, meanW/n)
			if p99n > 0 {
				t.AddPoint("p99 latency ("+mode.label+")", x, p99/float64(p99n))
			}
		}
	}

	noneAtWorst := t.Series[0].Y[len(factors)-1]
	if s, ok := t.SeriesByLabel("availability (replace)"); ok {
		replaceAtWorst := s.Y[len(s.Y)-1]
		t.Note("at MTBF = horizon, reschedule+replace availability %.4f vs %.4f unrepaired (+%.1f%%)",
			replaceAtWorst, noneAtWorst, 100*(replaceAtWorst-noneAtWorst))
	}
	t.Note("replacements booted across all runs: %d (%d found no feasible node); setup cost %.3gs each (ClickOS)",
		replacementsTotal, replacementsFailed, control.SetupCostClickOS)
	t.Note("reschedule-only tracks no-repair: the paper's placement co-locates all of a VNF's instances, so a node failure leaves no survivors to rebalance onto")
	return t, nil
}
