package control

import (
	"fmt"
	"math"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/repair"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/simulate"
	"nfvchain/internal/workload"
)

// hotFixture is a four-node deployment where each VNF starts with a single
// instance running near ρ ≈ 0.9 — above the default scale-up threshold — with
// plenty of spare nodes to scale and migrate onto.
func hotFixture(t *testing.T) (*model.Problem, *model.Schedule, *model.Placement) {
	t.Helper()
	prob := &model.Problem{
		Nodes: []model.Node{
			{ID: "a", Capacity: 10},
			{ID: "b", Capacity: 10},
			{ID: "c", Capacity: 10},
			{ID: "d", Capacity: 10},
		},
		VNFs: []model.VNF{
			{ID: "fw", Instances: 1, Demand: 1, ServiceRate: 100},
			{ID: "nat", Instances: 1, Demand: 1, ServiceRate: 100},
		},
		Requests: []model.Request{
			{ID: "r1", Chain: []model.VNFID{"fw", "nat"}, Rate: 50, DeliveryProb: 1},
			{ID: "r2", Chain: []model.VNFID{"fw", "nat"}, Rate: 40, DeliveryProb: 1},
		},
	}
	sched, err := scheduling.ScheduleAll(prob, scheduling.RCKK{})
	if err != nil {
		t.Fatal(err)
	}
	pl := model.NewPlacement()
	pl.Assign("fw", "a")
	pl.Assign("nat", "b")
	return prob, sched, pl
}

// coldFixture starts each VNF with two instances at ρ ≈ 0.03: far below the
// scale-down threshold, with ample slack to retire one replica per VNF.
func coldFixture(t *testing.T) (*model.Problem, *model.Schedule, *model.Placement) {
	t.Helper()
	prob := &model.Problem{
		Nodes: []model.Node{
			{ID: "a", Capacity: 10},
			{ID: "b", Capacity: 10},
			{ID: "c", Capacity: 10},
		},
		VNFs: []model.VNF{
			{ID: "fw", Instances: 2, Demand: 1, ServiceRate: 100},
			{ID: "nat", Instances: 2, Demand: 1, ServiceRate: 100},
		},
		Requests: []model.Request{
			{ID: "r1", Chain: []model.VNFID{"fw", "nat"}, Rate: 3, DeliveryProb: 1},
			{ID: "r2", Chain: []model.VNFID{"fw", "nat"}, Rate: 3, DeliveryProb: 1},
		},
	}
	sched, err := scheduling.ScheduleAll(prob, scheduling.RCKK{})
	if err != nil {
		t.Fatal(err)
	}
	pl := model.NewPlacement()
	pl.Assign("fw", "a")
	pl.Assign("nat", "b")
	return prob, sched, pl
}

// newController builds a controller over the fixture with fast (ClickOS-ish)
// setup and migration costs so actions land well inside the short horizons.
func newController(t *testing.T, prob *model.Problem, sched *model.Schedule, pl *model.Placement, policy Policy) *Controller {
	t.Helper()
	ctrl, err := New(Config{
		Problem:       prob,
		Placement:     pl,
		Schedule:      sched,
		Policy:        policy,
		SetupCost:     0.05,
		MigrationCost: 0.05,
		Seed:          1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ctrl
}

// runControlled simulates the deployment with ctrl attached as fault hook and
// control hook; ctrl == nil runs the unmitigated baseline over the same fault
// sample path.
func runControlled(t *testing.T, prob *model.Problem, sched *model.Schedule, pl *model.Placement, ctrl *Controller, pp *simulate.PreemptionPlan, seed uint64) *simulate.Results {
	t.Helper()
	cfg := simulate.Config{
		Problem:   prob,
		Schedule:  sched,
		Placement: pl,
		Horizon:   12,
		LinkDelay: 0.001,
		Seed:      seed,
	}
	if pp != nil {
		cfg.FaultPlan = &simulate.FaultPlan{Preemption: pp}
	}
	if ctrl != nil {
		cfg.FaultHook = ctrl
		cfg.Control = ctrl
		cfg.ControlInterval = 0.5
	}
	res, err := simulate.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// checkConservation asserts the extended packet ledger: every offered packet
// is delivered, in flight, buffer-dropped, failure-dropped, or shed.
func checkConservation(t *testing.T, res *simulate.Results) {
	t.Helper()
	got := res.Delivered + res.InFlight + res.Dropped + res.FailureDrops + res.Shed
	if got != res.Generated {
		t.Errorf("conservation violated: delivered %d + inflight %d + dropped %d + failed %d + shed %d = %d, want generated %d",
			res.Delivered, res.InFlight, res.Dropped, res.FailureDrops, res.Shed, got, res.Generated)
	}
}

func TestParsePolicy(t *testing.T) {
	for _, p := range []Policy{PolicyNone, PolicyRepair, PolicyAutoscale, PolicyAutoscaleMigrate} {
		got, err := ParsePolicy(p.String())
		if err != nil || got != p {
			t.Errorf("ParsePolicy(%q) = %v, %v", p.String(), got, err)
		}
	}
	if got, err := ParsePolicy("migrate"); err != nil || got != PolicyAutoscaleMigrate {
		t.Errorf("ParsePolicy(migrate) = %v, %v", got, err)
	}
	if _, err := ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy accepted bogus policy")
	}
}

func TestNewValidation(t *testing.T) {
	prob, sched, pl := hotFixture(t)
	base := Config{Problem: prob, Placement: pl, Schedule: sched}
	cases := map[string]func(Config) Config{
		"unknown policy":      func(c Config) Config { c.Policy = Policy(7); return c },
		"inverted thresholds": func(c Config) Config { c.ScaleUpUtil = 0.2; c.ScaleDownUtil = 0.5; return c },
		"scale-up above one":  func(c Config) Config { c.ScaleUpUtil = 1.5; return c },
		"bad target util":     func(c Config) Config { c.TargetUtil = 1.5; return c },
		"negative migration":  func(c Config) Config { c.MigrationCost = -1; return c },
		"nil problem":         func(c Config) Config { c.Problem = nil; return c },
		"NaN setup":           func(c Config) Config { c.SetupCost = math.NaN(); return c },
		"+Inf setup":          func(c Config) Config { c.SetupCost = math.Inf(1); return c },
	}
	for name, mut := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := New(mut(base)); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

// TestAutoscaleUpAddsCapacity drives a hot single-instance deployment: the
// tick loop must boot replicas and cut the mean sojourn time against the
// unmitigated baseline on identical arrival/service sample paths.
func TestAutoscaleUpAddsCapacity(t *testing.T) {
	prob, sched, pl := hotFixture(t)
	plain := runControlled(t, prob, sched, pl, nil, nil, 7)
	ctrl := newController(t, prob, sched, pl, PolicyAutoscale)
	scaled := runControlled(t, prob, sched, pl, ctrl, nil, 7)
	stats := ctrl.StatsAt(12)

	if scaled.Generated != plain.Generated {
		t.Fatalf("arrival streams diverged: %d vs %d generated", scaled.Generated, plain.Generated)
	}
	if stats.ScaleUps == 0 {
		t.Fatalf("hot deployment triggered no scale-ups: %+v", stats)
	}
	if len(scaled.Utilization) <= len(plain.Utilization) {
		t.Errorf("no new instances in results: %d vs %d", len(scaled.Utilization), len(plain.Utilization))
	}
	if scaled.Latency.Mean() >= plain.Latency.Mean() {
		t.Errorf("autoscaled mean latency %v not below baseline %v", scaled.Latency.Mean(), plain.Latency.Mean())
	}
	if stats.Ticks == 0 || stats.NodeSeconds <= 0 {
		t.Errorf("tick/cost accounting empty: %+v", stats)
	}
	checkConservation(t, scaled)
}

// TestScaleDownRetiresIdleCapacity drives a cold two-instance deployment: the
// controller must drain and retire replicas without losing packets.
func TestScaleDownRetiresIdleCapacity(t *testing.T) {
	prob, sched, pl := coldFixture(t)
	ctrl := newController(t, prob, sched, pl, PolicyAutoscale)
	res := runControlled(t, prob, sched, pl, ctrl, nil, 7)
	stats := ctrl.StatsAt(12)

	if stats.ScaleDowns == 0 {
		t.Fatalf("cold deployment triggered no scale-downs: %+v", stats)
	}
	if res.Delivered == 0 || res.FailureDrops != 0 || res.Shed != 0 {
		t.Errorf("scale-down lost traffic: %+v", res)
	}
	checkConservation(t, res)
}

// TestDiurnalCycleGrowsAndShrinks runs one fault-free autoscaled deployment
// through two periods of diurnal load: the pool must both grow into each peak
// and shrink out of each trough, at either of the paper's setup costs, and
// the slow VM boot must cost more latency than ClickOS's near-instant one.
func TestDiurnalCycleGrowsAndShrinks(t *testing.T) {
	const horizon = 120.0
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "a", Capacity: 400}, {ID: "b", Capacity: 400}, {ID: "c", Capacity: 400}},
		VNFs: []model.VNF{
			{ID: "fw", Instances: 2, Demand: 40, ServiceRate: 300},
			{ID: "nat", Instances: 2, Demand: 30, ServiceRate: 400},
		},
	}
	for i := 0; i < 12; i++ {
		prob.Requests = append(prob.Requests, model.Request{
			ID: model.RequestID(fmt.Sprintf("r%02d", i)), Chain: []model.VNFID{"fw", "nat"}, Rate: 30, DeliveryProb: 1,
		})
	}
	sched, err := scheduling.ScheduleAll(prob, scheduling.RCKK{})
	if err != nil {
		t.Fatal(err)
	}
	pl := model.NewPlacement()
	pl.Assign("fw", "a")
	pl.Assign("nat", "b")
	diurnal := []workload.ClientClass{{Name: "diurnal", Weight: 1, Process: workload.ProcessDiurnal, Amplitude: 0.8, Period: 60}}

	run := func(setup float64) (*simulate.Results, Stats) {
		ctrl, err := New(Config{Problem: prob, Placement: pl, Schedule: sched, Policy: PolicyAutoscale, SetupCost: setup, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		cw, err := workload.BuildSources(prob, diurnal, 1)
		if err != nil {
			t.Fatal(err)
		}
		srcs := make(map[model.RequestID]simulate.ArrivalSource, len(cw.Sources))
		for id, s := range cw.Sources {
			srcs[id] = s
		}
		res, err := simulate.Run(simulate.Config{
			Problem: prob, Schedule: sched, Placement: pl, Horizon: horizon, Seed: 1,
			Sources: srcs, Control: ctrl, ControlInterval: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkConservation(t, res)
		return res, ctrl.StatsAt(horizon)
	}

	vm, vmStats := run(repair.SetupCostVM)
	clickOS, clickStats := run(repair.SetupCostClickOS)
	for name, st := range map[string]Stats{"VM": vmStats, "ClickOS": clickStats} {
		if st.ScaleUps == 0 || st.ScaleDowns == 0 {
			t.Errorf("%s: diurnal cycle did not both grow and shrink the pool: %+v", name, st)
		}
	}
	if vm.Latency.Mean() <= clickOS.Latency.Mean() {
		t.Errorf("VM boot mean latency %v not above ClickOS %v", vm.Latency.Mean(), clickOS.Latency.Mean())
	}
}

// preemptionPlan is the shared correlated-loss scenario: roughly four events
// over the horizon, each taking half the cluster down for two seconds, with
// advance notice.
func preemptionPlan() *simulate.PreemptionPlan {
	return &simulate.PreemptionPlan{MeanInterval: 2.5, GroupSize: 2, Recovery: 2, LeadTime: 0.4}
}

// TestMigratePolicySurvivesPreemption is the headline robustness property: on
// the same preemption sample path, autoscale+migrate must strictly beat the
// unmitigated baseline on availability and permanent losses by evacuating
// doomed nodes ahead of each loss.
func TestMigratePolicySurvivesPreemption(t *testing.T) {
	prob, sched, pl := hotFixture(t)
	plain := runControlled(t, prob, sched, pl, nil, preemptionPlan(), 7)
	ctrl := newController(t, prob, sched, pl, PolicyAutoscaleMigrate)
	managed := runControlled(t, prob, sched, pl, ctrl, preemptionPlan(), 7)
	stats := ctrl.StatsAt(12)

	if managed.Generated != plain.Generated {
		t.Fatalf("fault/arrival streams diverged: %d vs %d generated", managed.Generated, plain.Generated)
	}
	if plain.FailureDrops == 0 {
		t.Fatal("baseline saw no preemption losses; scenario is vacuous")
	}
	if managed.Availability <= plain.Availability {
		t.Errorf("managed availability %v not above baseline %v", managed.Availability, plain.Availability)
	}
	if managed.FailureDrops >= plain.FailureDrops {
		t.Errorf("managed failure drops %d not below baseline %d", managed.FailureDrops, plain.FailureDrops)
	}
	if stats.Evacuations+stats.Migrations == 0 {
		t.Errorf("migrate policy moved nothing: %+v", stats)
	}
	checkConservation(t, plain)
	checkConservation(t, managed)
}

// TestTotalPreemptionSurvival preempts the entire cluster at once, repeatedly:
// every node hosting every VNF goes down together. The run must neither
// deadlock nor diverge — traffic is shed or served within the horizon and the
// extended ledger stays balanced.
func TestTotalPreemptionSurvival(t *testing.T) {
	prob, sched, pl := hotFixture(t)
	pp := &simulate.PreemptionPlan{MeanInterval: 3, GroupSize: 4, Recovery: 1.5, LeadTime: 0.3}
	ctrl := newController(t, prob, sched, pl, PolicyAutoscaleMigrate)
	res := runControlled(t, prob, sched, pl, ctrl, pp, 7)

	if res.Delivered == 0 {
		t.Error("total preemption delivered nothing")
	}
	if res.Shed == 0 {
		t.Error("capacity shortage shed no admissions")
	}
	if res.FailureDrops == 0 {
		t.Error("full-cluster preemption dropped nothing; scenario is vacuous")
	}
	checkConservation(t, res)
}

// TestControlDeterminism asserts equal seeds replay equal control decisions:
// identical results and stats across two managed runs.
func TestControlDeterminism(t *testing.T) {
	prob, sched, pl := hotFixture(t)
	run := func() (*simulate.Results, Stats) {
		ctrl := newController(t, prob, sched, pl, PolicyAutoscaleMigrate)
		res := runControlled(t, prob, sched, pl, ctrl, preemptionPlan(), 7)
		return res, ctrl.StatsAt(12)
	}
	res1, stats1 := run()
	res2, stats2 := run()
	if res1.Availability != res2.Availability || res1.Delivered != res2.Delivered ||
		res1.Shed != res2.Shed || res1.FailureDrops != res2.FailureDrops {
		t.Errorf("managed runs diverged: %v/%d/%d/%d vs %v/%d/%d/%d",
			res1.Availability, res1.Delivered, res1.Shed, res1.FailureDrops,
			res2.Availability, res2.Delivered, res2.Shed, res2.FailureDrops)
	}
	if stats1 != stats2 {
		t.Errorf("control stats diverged: %+v vs %+v", stats1, stats2)
	}
}

// TestResetMatchesFresh pins the reuse contract, mirroring the repair
// controller's: a Reset controller must behave bit-identically to a freshly
// constructed one, including when the reset run replays the seed of a prior,
// state-mutating run.
func TestResetMatchesFresh(t *testing.T) {
	prob, sched, pl := hotFixture(t)
	ctrl := newController(t, prob, sched, pl, PolicyAutoscaleMigrate)
	// Dirty the controller with one run on a different seed, then Reset and
	// compare against a fresh-controller baseline.
	runControlled(t, prob, sched, pl, ctrl, preemptionPlan(), 99)
	for trial := 0; trial < 3; trial++ {
		ctrl.Reset(1)
		gotRes := runControlled(t, prob, sched, pl, ctrl, preemptionPlan(), 7)
		gotStats := ctrl.StatsAt(12)
		fresh := newController(t, prob, sched, pl, PolicyAutoscaleMigrate)
		wantRes := runControlled(t, prob, sched, pl, fresh, preemptionPlan(), 7)
		wantStats := fresh.StatsAt(12)
		if gotRes.Availability != wantRes.Availability || gotRes.Delivered != wantRes.Delivered ||
			gotRes.Shed != wantRes.Shed {
			t.Fatalf("trial %d: reset run diverged from fresh: %v/%d/%d vs %v/%d/%d", trial,
				gotRes.Availability, gotRes.Delivered, gotRes.Shed,
				wantRes.Availability, wantRes.Delivered, wantRes.Shed)
		}
		if gotStats != wantStats {
			t.Fatalf("trial %d: reset stats diverged from fresh: %+v vs %+v", trial, gotStats, wantStats)
		}
	}
}

// TestPolicyOrderingInert asserts PolicyNone hooks are inert: attaching the
// controller must not change the simulation outcome versus no hooks at all.
func TestPolicyOrderingInert(t *testing.T) {
	prob, sched, pl := hotFixture(t)
	plain := runControlled(t, prob, sched, pl, nil, preemptionPlan(), 7)
	ctrl := newController(t, prob, sched, pl, PolicyNone)
	inert := runControlled(t, prob, sched, pl, ctrl, preemptionPlan(), 7)
	if inert.Availability != plain.Availability || inert.Delivered != plain.Delivered ||
		inert.FailureDrops != plain.FailureDrops || inert.Shed != 0 {
		t.Errorf("PolicyNone hooks perturbed the run: %v/%d/%d/%d vs %v/%d/%d",
			inert.Availability, inert.Delivered, inert.FailureDrops, inert.Shed,
			plain.Availability, plain.Delivered, plain.FailureDrops)
	}
	if st := ctrl.StatsAt(12); st.ScaleUps != 0 || st.Migrations != 0 || st.Evacuations != 0 ||
		st.Repair.Reschedules != 0 || st.Ticks == 0 {
		t.Errorf("PolicyNone acted: %+v", st)
	}
}
