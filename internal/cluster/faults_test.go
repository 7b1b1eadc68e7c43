package cluster

import (
	"fmt"
	"testing"

	"nfvchain/internal/control"
	"nfvchain/internal/model"
	"nfvchain/internal/simulate"
)

// faultsProblem is a two-node variant of diffProblem with an explicit
// placement, so each datacenter can host fault injection (faults require a
// placement) and a control plane with somewhere to migrate to.
func faultsProblem(withGlobals bool) (*model.Problem, *model.Schedule, *model.Placement) {
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "na", Capacity: 1000}, {ID: "nb", Capacity: 1000}},
		VNFs: []model.VNF{
			{ID: "f1", Instances: 1, Demand: 1, ServiceRate: 500},
			{ID: "f2", Instances: 1, Demand: 1, ServiceRate: 600},
		},
		Requests: []model.Request{
			{ID: "local", Chain: []model.VNFID{"f1", "f2"}, Rate: 120, DeliveryProb: 0.98},
		},
	}
	if withGlobals {
		prob.Requests = append(prob.Requests,
			model.Request{ID: "g0", Chain: []model.VNFID{"f1", "f2"}, Rate: 40, DeliveryProb: 0.98},
			model.Request{ID: "g1", Chain: []model.VNFID{"f1", "f2"}, Rate: 25, DeliveryProb: 0.98},
		)
	}
	sched := model.NewSchedule(model.Compile(prob))
	for _, r := range prob.Requests {
		for _, f := range prob.VNFs {
			sched.Assign(r.ID, f.ID, 0)
		}
	}
	pl := model.NewPlacement()
	pl.Assign("f1", "na")
	pl.Assign("f2", "nb")
	return prob, sched, pl
}

// runFaultsDiff builds a fresh 4-datacenter cluster — per-datacenter outage
// schedules, correlated preemption, and one autoscale+migrate controller per
// region — and runs it under the given driver. Controllers are per-region and
// rebuilt per run, so sequential and windowed executions start identical.
func runFaultsDiff(t *testing.T, workers int) *Results {
	t.Helper()
	cfg := Config{WANLatency: 0.005, Router: LeastLoaded{}, Seed: 9, Workers: workers}
	for d := 0; d < 4; d++ {
		prob, sched, pl := faultsProblem(d != 3)
		ctrl, err := control.New(control.Config{
			Problem:       prob,
			Placement:     pl,
			Schedule:      sched,
			Policy:        control.PolicyAutoscaleMigrate,
			SetupCost:     0.05,
			MigrationCost: 0.05,
			Seed:          uint64(d + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Datacenters = append(cfg.Datacenters, Datacenter{
			Name: fmt.Sprintf("dc%d", d),
			Sim: simulate.Config{
				Problem: prob, Schedule: sched, Placement: pl,
				Horizon: 8, Warmup: 1, LinkDelay: 0.001, Seed: uint64(50 + d),
				FaultPlan: &simulate.FaultPlan{
					Outages: []simulate.Outage{{Node: "na", DownAt: 2, UpAt: 3.5 + 0.2*float64(d)}},
					Preemption: &simulate.PreemptionPlan{
						MeanInterval: 4, GroupSize: 1, Recovery: 1, LeadTime: 0.2,
					},
				},
				Controller:      ctrl,
				ControlInterval: 0.5,
			},
		})
	}
	cfg.Global = []GlobalRequest{
		{ID: "g0", Rate: 40, Home: 0},
		{ID: "g1", Rate: 25, Home: 1},
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestClusterParallelFaultsDifferential extends the driver differential to
// the full online control plane: under per-datacenter outages, correlated
// preemption and per-region autoscale+migrate controllers, the windowed
// driver must produce bit-identical per-datacenter fingerprints and
// aggregates to the sequential driver.
func TestClusterParallelFaultsDifferential(t *testing.T) {
	base := runFaultsDiff(t, 0)
	var downtime, shed int
	for d := range base.Datacenters {
		res := base.Datacenters[d].Results
		downtime += len(res.Downtime)
		shed += res.Shed
	}
	if downtime == 0 {
		t.Fatal("no datacenter recorded downtime; fault scenario is vacuous")
	}
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			got := runFaultsDiff(t, workers)
			for d := range base.Datacenters {
				fb := fingerprint(base.Datacenters[d].Results)
				fg := fingerprint(got.Datacenters[d].Results)
				if fb != fg {
					t.Errorf("datacenter %d fingerprint = %#x, want sequential %#x", d, fg, fb)
				}
				if got.Datacenters[d].Results.Shed != base.Datacenters[d].Results.Shed {
					t.Errorf("datacenter %d shed = %d, want %d", d,
						got.Datacenters[d].Results.Shed, base.Datacenters[d].Results.Shed)
				}
			}
			if got.Generated != base.Generated || got.Delivered != base.Delivered ||
				got.WANHops != base.WANHops || got.RoutedLocal != base.RoutedLocal {
				t.Errorf("aggregates diverged:\n got %+v\nwant %+v", got, base)
			}
		})
	}
}
