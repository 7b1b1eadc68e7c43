package repair

import (
	"math"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/simulate"
)

// fixture is a three-node deployment of two VNFs with shared requests, sized
// so any single node can absorb the others' replacements.
func fixture(t *testing.T) (*model.Problem, *model.Schedule, *model.Placement) {
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

// runWithMode simulates the fixture under the given outages with a fresh
// controller in the given mode and returns results plus repair stats.
func runWithMode(t *testing.T, mode Mode, outages []simulate.Outage) (*simulate.Results, Stats) {
	t.Helper()
	prob, sched, pl := fixture(t)
	ctrl, err := New(Config{
		Problem:   prob,
		Placement: pl,
		Schedule:  sched,
		Mode:      mode,
		SetupCost: 0.05,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := simulate.Run(simulate.Config{
		Problem:   prob,
		Schedule:  sched,
		Placement: pl,
		Horizon:   10,
		LinkDelay: 0.001,
		Seed:      7,
		FaultPlan: &simulate.FaultPlan{Outages: outages},
		FaultHook: ctrl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res, ctrl.Stats()
}

func TestParseMode(t *testing.T) {
	for _, m := range []Mode{ModeNone, ModeReschedule, ModeRescheduleReplace} {
		got, err := ParseMode(m.String())
		if err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m.String(), got, err)
		}
	}
	if _, err := ParseMode("bogus"); err == nil {
		t.Error("ParseMode accepted bogus mode")
	}
}

func TestNewValidation(t *testing.T) {
	prob, sched, pl := fixture(t)
	cases := map[string]Config{
		"nil problem":    {Placement: pl, Schedule: sched},
		"nil placement":  {Problem: prob, Schedule: sched},
		"nil schedule":   {Problem: prob, Placement: pl},
		"negative setup": {Problem: prob, Placement: pl, Schedule: sched, SetupCost: -1},
		"NaN setup":      {Problem: prob, Placement: pl, Schedule: sched, SetupCost: math.NaN()},
		"+Inf setup":     {Problem: prob, Placement: pl, Schedule: sched, SetupCost: math.Inf(1)},
		"-Inf setup":     {Problem: prob, Placement: pl, Schedule: sched, SetupCost: math.Inf(-1)},
	}
	for name, cfg := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := New(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
}

// TestReplaceImprovesAvailability is the core self-healing property: under
// the same long outage and seed, reschedule+replace must strictly beat no
// repair on availability and permanent losses.
func TestReplaceImprovesAvailability(t *testing.T) {
	outages := []simulate.Outage{{Node: "a", DownAt: 2, UpAt: 9}}
	plain, plainStats := runWithMode(t, ModeNone, outages)
	repaired, stats := runWithMode(t, ModeRescheduleReplace, outages)

	if repaired.Generated != plain.Generated {
		t.Fatalf("fault/arrival streams diverged across modes: %d vs %d generated",
			repaired.Generated, plain.Generated)
	}
	if repaired.Availability <= plain.Availability {
		t.Errorf("replace availability %v not above none %v", repaired.Availability, plain.Availability)
	}
	if repaired.FailureDrops >= plain.FailureDrops {
		t.Errorf("replace failure drops %d not below none %d", repaired.FailureDrops, plain.FailureDrops)
	}
	if plainStats.NodeFailures != 1 || plainStats.Reschedules != 0 || plainStats.Replacements != 0 {
		t.Errorf("ModeNone stats show repair activity: %+v", plainStats)
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
// reschedule-only repair under the paper's placement: all of a VNF's
// instances share a node, so a node failure leaves no survivors to
// rebalance onto and availability matches the unrepaired run.
func TestRescheduleOnlyWithColocatedInstances(t *testing.T) {
	outages := []simulate.Outage{{Node: "a", DownAt: 2, UpAt: 9}}
	plain, _ := runWithMode(t, ModeNone, outages)
	resched, stats := runWithMode(t, ModeReschedule, outages)
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
	outages := []simulate.Outage{
		{Node: "a", DownAt: 1, UpAt: 4},
		{Node: "b", DownAt: 5, UpAt: 8},
	}
	plain, _ := runWithMode(t, ModeNone, outages)
	repaired, stats := runWithMode(t, ModeRescheduleReplace, outages)
	if repaired.Availability <= plain.Availability {
		t.Errorf("replace availability %v not above none %v under sequential failures",
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

// TestRepairDeterminism asserts equal seeds replay equal repairs: identical
// availability, downtime and stats across two runs.
// TestResetMatchesFresh pins the reuse contract: a controller Reset to a
// seed must behave bit-identically to a freshly constructed one — same
// simulation results, same repair stats — including when the reset run
// replays the seed of a prior, state-mutating run.
func TestResetMatchesFresh(t *testing.T) {
	outages := []simulate.Outage{
		{Node: "a", DownAt: 1, UpAt: 4},
		{Node: "b", DownAt: 5, UpAt: 8},
	}
	prob, sched, pl := fixture(t)
	ctrl, err := New(Config{
		Problem:   prob,
		Placement: pl,
		Schedule:  sched,
		Mode:      ModeRescheduleReplace,
		SetupCost: 0.05,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func(c *Controller, seed uint64) (*simulate.Results, Stats) {
		res, err := simulate.Run(simulate.Config{
			Problem:   prob,
			Schedule:  sched,
			Placement: pl,
			Horizon:   10,
			LinkDelay: 0.001,
			Seed:      seed,
			FaultPlan: &simulate.FaultPlan{Outages: outages},
			FaultHook: c,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, c.Stats()
	}
	// Dirty the controller with one run on a different seed, then Reset and
	// compare against the fresh-controller baseline.
	run(ctrl, 99)
	for trial := 0; trial < 3; trial++ {
		ctrl.Reset(1)
		gotRes, gotStats := run(ctrl, 7)
		wantRes, wantStats := runWithMode(t, ModeRescheduleReplace, outages)
		if gotRes.Availability != wantRes.Availability || gotRes.Delivered != wantRes.Delivered ||
			gotRes.Dropped != wantRes.Dropped {
			t.Fatalf("trial %d: reset run diverged from fresh: %v/%d/%d vs %v/%d/%d", trial,
				gotRes.Availability, gotRes.Delivered, gotRes.Dropped,
				wantRes.Availability, wantRes.Delivered, wantRes.Dropped)
		}
		if gotStats != wantStats {
			t.Fatalf("trial %d: reset stats diverged from fresh: %+v vs %+v", trial, gotStats, wantStats)
		}
	}
}

func TestRepairDeterminism(t *testing.T) {
	outages := []simulate.Outage{
		{Node: "a", DownAt: 1, UpAt: 4},
		{Node: "b", DownAt: 5, UpAt: 8},
	}
	res1, stats1 := runWithMode(t, ModeRescheduleReplace, outages)
	res2, stats2 := runWithMode(t, ModeRescheduleReplace, outages)
	if res1.Availability != res2.Availability || res1.Delivered != res2.Delivered {
		t.Errorf("repaired runs diverged: %v/%d vs %v/%d",
			res1.Availability, res1.Delivered, res2.Availability, res2.Delivered)
	}
	if stats1 != stats2 {
		t.Errorf("repair stats diverged: %+v vs %+v", stats1, stats2)
	}
}
