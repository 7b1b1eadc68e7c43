package experiment

import (
	"fmt"
	"sync"

	"nfvchain/internal/control"
	"nfvchain/internal/model"
	"nfvchain/internal/placement"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/simulate"
	"nfvchain/internal/stats"
	"nfvchain/internal/workload"
)

// controlPolicies are the control-plane policies compared at every preemption
// intensity. PolicyNone runs with no controller at all — the unmitigated baseline
// on the identical fault sample path.
var controlPolicies = []control.Policy{
	control.PolicyNone,
	control.PolicyRepair,
	control.PolicyAutoscale,
	control.PolicyAutoscaleMigrate,
}

// Control maps the cost-vs-SLO frontier of the online control plane under
// correlated preemptions. A BFDSU-placed, RCKK-scheduled deployment faces
// spot-style correlated capacity loss (groups of nodes preempted at once,
// with advance notice) at increasing intensity, crossed with four rungs of
// the internal/control ladder; every policy sees the identical preemption
// sample path per (intensity, trial) cell. Reported per policy: availability,
// p99 latency, the shed fraction of offered load, and the mean number of
// nodes in service (the cost axis — NodeSeconds/horizon). Escalating the
// policy buys back tail latency and availability: repair replaces lost
// capacity after each loss, autoscaling rightsizes pools between losses and
// sheds deterministically when capacity cannot cover load, and migration
// evacuates doomed nodes during the notice window so the loss lands on empty
// hosts.
func Control(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "control",
		Title:  "Online control plane under correlated preemption × policy (BFDSU+RCKK, group=2, ClickOS setup)",
		XLabel: "expected preemptions per horizon (horizon/mean interval)",
		YLabel: "availability (delivered/offered)",
	}
	const (
		horizon  = 20.0
		warmup   = 1.0
		interval = 0.5 // controller tick period
		group    = 2   // nodes preempted per event
		leadTime = 0.5 // advance-notice window
	)
	recovery := horizon / 8
	// Expected preemption events per horizon; 0 disables preemption.
	intensities := []float64{0, 1, 3, 6}

	type policyResult struct {
		avail, p99, shed, nodes float64
		p99ok                   bool
	}
	simPool := sync.Pool{New: func() any { return simulate.NewSimulator() }}
	perPoint, err := forEachPointTrial(len(intensities), cfg.PlacementTrials,
		func(point, trial int) ([4]policyResult, error) {
			var out [4]policyResult
			seed := cfg.Seed + uint64(trial)*2654435761
			wcfg := workload.DefaultConfig()
			wcfg.Seed = seed
			wcfg.NumVNFs = 8
			wcfg.NumRequests = 40
			wcfg.NumNodes = 6
			wcfg.RateMax = 40
			prob, err := workload.Generate(wcfg)
			if err != nil {
				return out, fmt.Errorf("control: %w", err)
			}
			placed, err := (&placement.BFDSU{Seed: seed}).Place(prob)
			if err != nil {
				return out, fmt.Errorf("control: %w", err)
			}
			sched, err := scheduling.ScheduleAll(prob, scheduling.RCKK{})
			if err != nil {
				return out, fmt.Errorf("control: %w", err)
			}
			var plan *simulate.FaultPlan
			if intensities[point] > 0 {
				plan = &simulate.FaultPlan{Preemption: &simulate.PreemptionPlan{
					MeanInterval: horizon / intensities[point],
					GroupSize:    group,
					Recovery:     recovery,
					LeadTime:     leadTime,
				}}
			}
			sim := simPool.Get().(*simulate.Simulator)
			defer simPool.Put(sim)
			for pi, policy := range controlPolicies {
				scfg := simulate.Config{
					Problem:   prob,
					Schedule:  sched,
					Placement: placed.Placement,
					Horizon:   horizon,
					Warmup:    warmup,
					LinkDelay: 0.001,
					Seed:      seed,
					FaultPlan: plan,
					// Retransmit on failure: no packet is abandoned, so a
					// preemption shows up as retry storms and backlog tail
					// latency — the SLO axis the control plane defends —
					// rather than as silently purged queues.
					FailurePolicy:   simulate.FailRetransmit,
					RetransmitDelay: 0.05,
				}
				var ctrl *control.Controller
				if policy != control.PolicyNone {
					ctrl, err = control.New(control.Config{
						Problem:       prob,
						Placement:     placed.Placement,
						Schedule:      sched,
						Policy:        policy,
						SetupCost:     control.SetupCostClickOS,
						MigrationCost: control.SetupCostClickOS,
						Seed:          seed,
					})
					if err != nil {
						return out, fmt.Errorf("control: %w", err)
					}
					scfg.Controller = ctrl
					scfg.ControlInterval = interval
				}
				if err := sim.Reset(scfg); err != nil {
					return out, fmt.Errorf("control: %w", err)
				}
				res, err := sim.Run()
				if err != nil {
					return out, fmt.Errorf("control: %w", err)
				}
				p99, ok := stats.PercentileOK(res.LatencySamples, 99)
				nodes := float64(placedNodes(prob, placed.Placement))
				if ctrl != nil {
					nodes = ctrl.StatsAt(horizon).NodeSeconds / horizon
				}
				out[pi] = policyResult{
					avail: res.Availability,
					p99:   p99,
					p99ok: ok,
					shed:  float64(res.Shed) / float64(max(res.Generated, 1)),
					nodes: nodes,
				}
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}

	for xi, x := range intensities {
		for pi, policy := range controlPolicies {
			var avail, p99, shed, nodes float64
			p99n := 0
			for _, tr := range perPoint[xi] {
				avail += tr[pi].avail
				shed += tr[pi].shed
				nodes += tr[pi].nodes
				if tr[pi].p99ok {
					p99 += tr[pi].p99
					p99n++
				}
			}
			n := float64(len(perPoint[xi]))
			t.AddPoint("availability ("+policy.String()+")", x, avail/n)
			t.AddPoint("shed fraction ("+policy.String()+")", x, shed/n)
			t.AddPoint("nodes in service ("+policy.String()+")", x, nodes/n)
			if p99n > 0 {
				t.AddPoint("p99 latency ("+policy.String()+")", x, p99/float64(p99n))
			}
		}
	}

	worst := intensities[len(intensities)-1]
	noneP99, ok1 := seriesAt(t, "p99 latency (none)", worst)
	migP99, ok2 := seriesAt(t, "p99 latency (autoscale+migrate)", worst)
	noneNodes, _ := seriesAt(t, "nodes in service (none)", worst)
	migNodes, _ := seriesAt(t, "nodes in service (autoscale+migrate)", worst)
	if ok1 && ok2 {
		t.Note("frontier at %.0f preemptions/horizon: autoscale+migrate p99 %.4fs on %.2f mean nodes vs none p99 %.4fs on %.2f nodes",
			worst, migP99, migNodes, noneP99, noneNodes)
	}
	t.Note("preemptions take %d nodes down together for %.3gs with %.2gs advance notice; controller ticks every %.2gs (ClickOS boot/migration %.3gs)",
		group, recovery, leadTime, interval, control.SetupCostClickOS)
	t.Note("shedding is the graceful-degradation valve: autoscale policies shed the admission fraction active capacity cannot cover at the target utilization instead of letting queues diverge")
	return t, nil
}

// placedNodes counts the distinct nodes hosting at least one VNF under the
// initial placement — the constant nodes-in-service of an uncontrolled run.
func placedNodes(prob *model.Problem, pl *model.Placement) int {
	seen := make(map[model.NodeID]struct{}, len(prob.Nodes))
	for _, f := range prob.VNFs {
		if n, ok := pl.Node(f.ID); ok {
			seen[n] = struct{}{}
		}
	}
	return len(seen)
}

// seriesAt returns the series value at x, if both exist.
func seriesAt(t *Table, label string, x float64) (float64, bool) {
	s, ok := t.SeriesByLabel(label)
	if !ok {
		return 0, false
	}
	for i, sx := range s.X {
		if sx == x {
			return s.Y[i], true
		}
	}
	return 0, false
}
