package control

import (
	"fmt"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/simulate"
)

// allocSeeds is the fixed seed set TestControllerReuseAllocs counts over.
var allocSeeds = []uint64{3, 7, 11}

// TestControllerReuseAllocs pins the allocations of one controlled run on a
// reused Simulator with a Reset controller, at the repair rung (node
// transitions only: no ticks, MTBF faults, failed packets retransmitted) and
// at autoscale+migrate (0.5 s ticks, announced preemptions). Each count is
// taken with testing.AllocsPerRun, whose first call is a warm-up run, per
// named seed in a fixed order, so it is an exact integer and not a mean that
// depends on an iteration count. The counts are the program's own: this
// test binary does not link net/http, so no runtime cleanup of
// unique-interned handles allocates inside the measurement. Under -race
// the runs still execute but the counts are only logged.
func TestControllerReuseAllocs(t *testing.T) {
	cases := []struct {
		name    string
		fixture func(*testing.T) (*model.Problem, *model.Schedule, *model.Placement)
		policy  Policy
		config  func(prob *model.Problem, sched *model.Schedule, pl *model.Placement, ctrl *Controller, seed uint64) simulate.Config
		want    []float64 // per allocSeeds entry
	}{
		{"repair", outageFixture, PolicyRepair, func(prob *model.Problem, sched *model.Schedule, pl *model.Placement, ctrl *Controller, seed uint64) simulate.Config {
			return simulate.Config{
				Problem: prob, Schedule: sched, Placement: pl, LinkDelay: 0.001,
				Horizon: 10, Warmup: 1, Seed: seed,
				FaultPlan:     &simulate.FaultPlan{MTBF: 3, MTTR: 1},
				FailurePolicy: simulate.FailRetransmit, RetransmitDelay: 0.01,
				Controller: ctrl,
			}
		}, []float64{46, 48, 48}},
		{"autoscale+migrate", hotFixture, PolicyAutoscaleMigrate, func(prob *model.Problem, sched *model.Schedule, pl *model.Placement, ctrl *Controller, seed uint64) simulate.Config {
			return simulate.Config{
				Problem: prob, Schedule: sched, Placement: pl, LinkDelay: 0.001,
				Horizon: 12, Warmup: 1, Seed: seed,
				FaultPlan:  &simulate.FaultPlan{Preemption: preemptionPlan()},
				Controller: ctrl, ControlInterval: 0.5,
			}
		}, []float64{109, 134, 149}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prob, sched, pl := tc.fixture(t)
			ctrl := newController(t, prob, sched, pl, tc.policy)
			sim := simulate.NewSimulator()
			got := make([]float64, len(allocSeeds))
			for i, seed := range allocSeeds {
				cfg := tc.config(prob, sched, pl, ctrl, seed)
				got[i] = testing.AllocsPerRun(3, func() {
					ctrl.Reset(seed)
					if err := sim.Reset(cfg); err != nil {
						t.Fatal(err)
					}
					if _, err := sim.Run(); err != nil {
						t.Fatal(err)
					}
				})
			}
			if raceEnabled {
				t.Logf("allocs per reused run at seeds %v under -race: %v (not pinned)", allocSeeds, got)
				return
			}
			if fmt.Sprint(got) != fmt.Sprint(tc.want) {
				t.Errorf("allocs per reused run at seeds %v: %v, want %v", allocSeeds, got, tc.want)
			}
		})
	}
}
