package control

import (
	"fmt"
	"math"
	"testing"

	"nfvchain/internal/model"
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

// outageFixture is a three-node deployment of two VNFs with shared requests,
// sized so any single node can absorb the others' replacements.
func outageFixture(t *testing.T) (*model.Problem, *model.Schedule, *model.Placement) {
	t.Helper()
	prob := &model.Problem{
		Nodes: []model.Node{
			{ID: "a", Capacity: 10},
			{ID: "b", Capacity: 10},
			{ID: "c", Capacity: 10},
		},
		VNFs: []model.VNF{
			{ID: "fw", Instances: 2, Demand: 1, ServiceRate: 120},
			{ID: "nat", Instances: 2, Demand: 1, ServiceRate: 120},
		},
		Requests: []model.Request{
			{ID: "r1", Chain: []model.VNFID{"fw", "nat"}, Rate: 30, DeliveryProb: 1},
			{ID: "r2", Chain: []model.VNFID{"fw", "nat"}, Rate: 25, DeliveryProb: 1},
			{ID: "r3", Chain: []model.VNFID{"fw"}, Rate: 20, DeliveryProb: 1},
			{ID: "r4", Chain: []model.VNFID{"nat"}, Rate: 15, DeliveryProb: 1},
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

// runControlled simulates the deployment with ctrl attached and ticking;
// ctrl == nil runs the unmitigated baseline over the same fault sample path.
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
		cfg.Controller = ctrl
		cfg.ControlInterval = 0.5
	}
	res, err := simulate.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runNoTicks simulates a deployment under the given outages with ctrl
// attached and not ticking — how the node-transition rungs are wired in — and
// returns the results.
func runNoTicks(t *testing.T, prob *model.Problem, sched *model.Schedule, pl *model.Placement, ctrl *Controller, outages []simulate.Outage, seed uint64) *simulate.Results {
	t.Helper()
	res, err := simulate.Run(simulate.Config{
		Problem:    prob,
		Schedule:   sched,
		Placement:  pl,
		Horizon:    10,
		LinkDelay:  0.001,
		Seed:       seed,
		FaultPlan:  &simulate.FaultPlan{Outages: outages},
		Controller: ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// runWithPolicy simulates the outage fixture under the given outages with a
// fresh non-ticking controller at the given policy and returns results
// plus stats.
func runWithPolicy(t *testing.T, policy Policy, outages []simulate.Outage) (*simulate.Results, Stats) {
	t.Helper()
	prob, sched, pl := outageFixture(t)
	ctrl := newController(t, prob, sched, pl, policy)
	res := runNoTicks(t, prob, sched, pl, ctrl, outages, 7)
	return res, ctrl.Stats()
}

// staggeredOutages takes node a and then node b down, so the second outage
// may kill replacements booted for the first.
func staggeredOutages() []simulate.Outage {
	return []simulate.Outage{
		{Node: "a", DownAt: 1, UpAt: 4},
		{Node: "b", DownAt: 5, UpAt: 8},
	}
}

// policies lists every rung of the ladder, bottom to top.
var policies = []Policy{PolicyNone, PolicyReschedule, PolicyRepair, PolicyAutoscale, PolicyAutoscaleMigrate}

// replayCase is one deployment and fault sample path on which the reuse and
// determinism contracts are checked at every rung.
type replayCase struct {
	name    string
	horizon float64
	fixture func(*testing.T) (*model.Problem, *model.Schedule, *model.Placement)
	run     func(t *testing.T, prob *model.Problem, sched *model.Schedule, pl *model.Placement, ctrl *Controller, seed uint64) *simulate.Results
}

// replayCases are staggered outages with the controller not ticking, and
// announced preemptions with it ticking.
var replayCases = []replayCase{
	{"outages", 10, outageFixture, func(t *testing.T, prob *model.Problem, sched *model.Schedule, pl *model.Placement, ctrl *Controller, seed uint64) *simulate.Results {
		return runNoTicks(t, prob, sched, pl, ctrl, staggeredOutages(), seed)
	}},
	{"preemption", 12, hotFixture, func(t *testing.T, prob *model.Problem, sched *model.Schedule, pl *model.Placement, ctrl *Controller, seed uint64) *simulate.Results {
		return runControlled(t, prob, sched, pl, ctrl, preemptionPlan(), seed)
	}},
}

// sameRun reports whether two runs agree on every packet count the
// controllers can move.
func sameRun(a, b *simulate.Results) bool {
	return a.Generated == b.Generated && a.Delivered == b.Delivered && a.Dropped == b.Dropped &&
		a.FailureDrops == b.FailureDrops && a.Shed == b.Shed && a.InFlight == b.InFlight &&
		a.Availability == b.Availability
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
	for _, p := range policies {
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
		// Out-of-range policies must not fall back to some rung silently.
		"unknown policy":      func(c Config) Config { c.Policy = Policy(7); return c },
		"negative policy":     func(c Config) Config { c.Policy = Policy(-1); return c },
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

// TestNewValidationEveryPolicy checks that the deployment and setup-cost
// checks hold on every rung, not only where the mechanism using them runs.
func TestNewValidationEveryPolicy(t *testing.T) {
	prob, sched, pl := outageFixture(t)
	base := Config{Problem: prob, Placement: pl, Schedule: sched}
	cases := map[string]func(Config) Config{
		"nil problem":    func(c Config) Config { c.Problem = nil; return c },
		"nil placement":  func(c Config) Config { c.Placement = nil; return c },
		"nil schedule":   func(c Config) Config { c.Schedule = nil; return c },
		"negative setup": func(c Config) Config { c.SetupCost = -1; return c },
		"NaN setup":      func(c Config) Config { c.SetupCost = math.NaN(); return c },
		"+Inf setup":     func(c Config) Config { c.SetupCost = math.Inf(1); return c },
		"-Inf setup":     func(c Config) Config { c.SetupCost = math.Inf(-1); return c },
	}
	for name, mut := range cases {
		t.Run(name, func(t *testing.T) {
			for _, p := range policies {
				cfg := mut(base)
				cfg.Policy = p
				if _, err := New(cfg); err == nil {
					t.Errorf("%v: invalid config accepted", p)
				}
			}
		})
	}
	for _, p := range policies {
		cfg := base
		cfg.Policy = p
		if _, err := New(cfg); err != nil {
			t.Errorf("%v: valid base config rejected: %v", p, err)
		}
	}
}

// TestReplaceImprovesAvailability is the core self-healing property: under
// the same long outage and seed, the repair rung must strictly beat no
// repair on availability and permanent losses.
func TestReplaceImprovesAvailability(t *testing.T) {
	outages := []simulate.Outage{{Node: "a", DownAt: 2, UpAt: 9}}
	plain, plainStats := runWithPolicy(t, PolicyNone, outages)
	repaired, stats := runWithPolicy(t, PolicyRepair, outages)

	if repaired.Generated != plain.Generated {
		t.Fatalf("fault/arrival streams diverged across policies: %d vs %d generated",
			repaired.Generated, plain.Generated)
	}
	if repaired.Availability <= plain.Availability {
		t.Errorf("repair availability %v not above none %v", repaired.Availability, plain.Availability)
	}
	if repaired.FailureDrops >= plain.FailureDrops {
		t.Errorf("repair failure drops %d not below none %d", repaired.FailureDrops, plain.FailureDrops)
	}
	if plainStats.NodeFailures != 1 || plainStats.Reschedules != 0 || plainStats.Replacements != 0 {
		t.Errorf("PolicyNone stats show repair activity: %+v", plainStats)
	}
	if stats.NodeFailures != 1 || stats.NodeRecoveries != 1 {
		t.Errorf("transition counts wrong: %+v", stats)
	}
	if stats.Replacements != 2 { // fw had 2 instances on the failed node
		t.Errorf("replacements = %d, want 2: %+v", stats.Replacements, stats)
	}
	if stats.Reschedules == 0 || stats.ReplacementsFailed != 0 || stats.SetupSecs != 0.1 {
		t.Errorf("unexpected repair stats: %+v", stats)
	}
	// The ledger must balance in repaired runs too.
	if got := repaired.Delivered + repaired.InFlight + repaired.FailureDrops; got != repaired.Generated {
		t.Errorf("conservation violated after repair: %d != %d", got, repaired.Generated)
	}
}

// TestRescheduleOnlyWithColocatedInstances documents the structural limit of
// the reschedule rung under the paper's placement: all of a VNF's instances
// share a node, so a node failure leaves no survivors to rebalance onto and
// availability matches the unrepaired run.
func TestRescheduleOnlyWithColocatedInstances(t *testing.T) {
	outages := []simulate.Outage{{Node: "a", DownAt: 2, UpAt: 9}}
	plain, _ := runWithPolicy(t, PolicyNone, outages)
	resched, stats := runWithPolicy(t, PolicyReschedule, outages)
	if resched.Availability < plain.Availability {
		t.Errorf("reschedule-only availability %v below none %v", resched.Availability, plain.Availability)
	}
	if stats.Replacements != 0 {
		t.Errorf("reschedule-only booted %d replacements", stats.Replacements)
	}
	// The recovery rebalance (NodeUp) still fires once survivors return.
	if stats.NodeRecoveries != 1 {
		t.Errorf("stats = %+v, want one recovery", stats)
	}
}

// TestSequentialFailures drives two staggered outages: the second kills a
// node that may host earlier replacements, exercising the
// rebalance-over-survivors path and replacement re-placement.
func TestSequentialFailures(t *testing.T) {
	plain, _ := runWithPolicy(t, PolicyNone, staggeredOutages())
	repaired, stats := runWithPolicy(t, PolicyRepair, staggeredOutages())
	if repaired.Availability <= plain.Availability {
		t.Errorf("repair availability %v not above none %v under sequential failures",
			repaired.Availability, plain.Availability)
	}
	if stats.NodeFailures != 2 || stats.NodeRecoveries != 2 {
		t.Errorf("transition counts wrong: %+v", stats)
	}
	if stats.Replacements == 0 {
		t.Errorf("no replacements booted: %+v", stats)
	}
	if got := repaired.Delivered + repaired.InFlight + repaired.FailureDrops; got != repaired.Generated {
		t.Errorf("conservation violated: %d != %d", got, repaired.Generated)
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
		res, err := simulate.Run(simulate.Config{
			Problem: prob, Schedule: sched, Placement: pl, Horizon: horizon, Seed: 1,
			Arrivals: workload.NewMergedStream(cw.Sources), Controller: ctrl, ControlInterval: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		checkConservation(t, res)
		return res, ctrl.StatsAt(horizon)
	}

	vm, vmStats := run(SetupCostVM)
	clickOS, clickStats := run(SetupCostClickOS)
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

// TestControlDeterminism asserts equal seeds replay equal decisions at every
// rung: identical results and stats across two runs of fresh controllers,
// both without ticks under staggered outages and ticking under announced
// preemptions.
func TestControlDeterminism(t *testing.T) {
	for _, rc := range replayCases {
		prob, sched, pl := rc.fixture(t)
		for _, policy := range policies {
			t.Run(rc.name+"/"+policy.String(), func(t *testing.T) {
				run := func() (*simulate.Results, Stats) {
					ctrl := newController(t, prob, sched, pl, policy)
					res := rc.run(t, prob, sched, pl, ctrl, 7)
					return res, ctrl.StatsAt(rc.horizon)
				}
				res1, stats1 := run()
				res2, stats2 := run()
				if !sameRun(res1, res2) {
					t.Errorf("runs diverged: %+v vs %+v", res1, res2)
				}
				if stats1 != stats2 {
					t.Errorf("stats diverged: %+v vs %+v", stats1, stats2)
				}
			})
		}
	}
}

// TestResetMatchesFresh pins the reuse contract at every rung: a Reset
// controller must behave bit-identically to a freshly constructed one —
// same simulation results, same stats — including when the reset run
// replays the seed of a prior, state-mutating run.
func TestResetMatchesFresh(t *testing.T) {
	for _, rc := range replayCases {
		prob, sched, pl := rc.fixture(t)
		for _, policy := range policies {
			t.Run(rc.name+"/"+policy.String(), func(t *testing.T) {
				ctrl := newController(t, prob, sched, pl, policy)
				// Dirty the controller with one run on a different seed, then
				// Reset and compare against a fresh-controller baseline.
				rc.run(t, prob, sched, pl, ctrl, 99)
				for trial := 0; trial < 3; trial++ {
					ctrl.Reset(1)
					gotRes := rc.run(t, prob, sched, pl, ctrl, 7)
					gotStats := ctrl.StatsAt(rc.horizon)
					fresh := newController(t, prob, sched, pl, policy)
					wantRes := rc.run(t, prob, sched, pl, fresh, 7)
					wantStats := fresh.StatsAt(rc.horizon)
					if !sameRun(gotRes, wantRes) {
						t.Fatalf("trial %d: reset run diverged from fresh: %+v vs %+v", trial, gotRes, wantRes)
					}
					if gotStats != wantStats {
						t.Fatalf("trial %d: reset stats diverged from fresh: %+v vs %+v", trial, gotStats, wantStats)
					}
				}
			})
		}
	}
}

// TestPolicyOrderingInert asserts a PolicyNone controller is inert: attaching
// it must not change the simulation outcome versus no controller at all.
func TestPolicyOrderingInert(t *testing.T) {
	prob, sched, pl := hotFixture(t)
	plain := runControlled(t, prob, sched, pl, nil, preemptionPlan(), 7)
	ctrl := newController(t, prob, sched, pl, PolicyNone)
	inert := runControlled(t, prob, sched, pl, ctrl, preemptionPlan(), 7)
	if inert.Availability != plain.Availability || inert.Delivered != plain.Delivered ||
		inert.FailureDrops != plain.FailureDrops || inert.Shed != 0 {
		t.Errorf("PolicyNone controller perturbed the run: %v/%d/%d/%d vs %v/%d/%d",
			inert.Availability, inert.Delivered, inert.FailureDrops, inert.Shed,
			plain.Availability, plain.Delivered, plain.FailureDrops)
	}
	if st := ctrl.StatsAt(12); st.ScaleUps != 0 || st.Migrations != 0 || st.Evacuations != 0 ||
		st.Reschedules != 0 || st.Ticks == 0 {
		t.Errorf("PolicyNone acted: %+v", st)
	}
}
