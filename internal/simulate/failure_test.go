package simulate

import (
	"math"
	"testing"

	"nfvchain/internal/model"
)

// faultProblem is one request through a two-stage chain whose VNFs sit on
// different nodes, so a single-node failure takes out exactly one stage.
func faultProblem(lambda, mu float64) (*model.Problem, *model.Schedule, *model.Placement) {
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "a", Capacity: 100}, {ID: "b", Capacity: 100}},
		VNFs: []model.VNF{
			{ID: "f", Instances: 1, Demand: 1, ServiceRate: mu},
			{ID: "g", Instances: 1, Demand: 1, ServiceRate: mu},
		},
		Requests: []model.Request{{ID: "r", Chain: []model.VNFID{"f", "g"}, Rate: lambda, DeliveryProb: 1}},
	}
	sched := model.NewSchedule(model.Compile(prob))
	sched.Assign("r", "f", 0)
	sched.Assign("r", "g", 0)
	pl := model.NewPlacement()
	pl.Assign("f", "a")
	pl.Assign("g", "b")
	return prob, sched, pl
}

// checkConservation asserts the packet ledger balances: every admitted packet
// is delivered, still in flight, or permanently lost to the one sink each
// policy combination allows.
func checkConservation(t *testing.T, cfg Config, res *Results) {
	t.Helper()
	lost := 0
	if cfg.DropPolicy == DropDiscard {
		lost += res.Dropped
	}
	lost += res.FailureDrops // only non-zero under FailDrop
	if got := res.Delivered + res.InFlight + lost; got != res.Generated {
		t.Errorf("conservation violated: delivered %d + inflight %d + lost %d = %d, want generated %d",
			res.Delivered, res.InFlight, lost, got, res.Generated)
	}
	if cfg.FailurePolicy == FailRetransmit && res.FailureDrops != 0 {
		t.Errorf("FailRetransmit lost %d packets to failures", res.FailureDrops)
	}
}

// TestFailureConservationAllPolicies sweeps every (DropPolicy, FailurePolicy)
// combination over several seeds under random faults plus a scheduled outage
// and asserts the conservation invariant — no goldens, pure property.
func TestFailureConservationAllPolicies(t *testing.T) {
	prob, sched, pl := faultProblem(40, 60)
	for _, dp := range []DropPolicy{DropDiscard, DropRetransmit} {
		for _, fp := range []FailurePolicy{FailDrop, FailRetransmit} {
			for seed := uint64(1); seed <= 6; seed++ {
				cfg := Config{
					Problem:         prob,
					Schedule:        sched,
					Placement:       pl,
					Horizon:         25,
					LinkDelay:       0.002,
					BufferSize:      4,
					DropPolicy:      dp,
					FailurePolicy:   fp,
					RetransmitDelay: 0.01,
					FaultPlan: &FaultPlan{
						MTBF:    4,
						MTTR:    1,
						Outages: []Outage{{Node: "b", DownAt: 10, UpAt: 12}},
					},
					Seed: seed,
				}
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("drop=%d fail=%d seed=%d: %v", dp, fp, seed, err)
				}
				if res.Generated == 0 {
					t.Fatalf("drop=%d fail=%d seed=%d: no traffic generated", dp, fp, seed)
				}
				checkConservation(t, cfg, res)
			}
		}
	}
}

// TestScheduledOutageDeterministic pins the semantics of a deterministic
// outage: exact downtime accounting, failure drops only on the failed node's
// instance, and availability strictly below a fault-free run.
func TestScheduledOutageDeterministic(t *testing.T) {
	prob, sched, pl := faultProblem(50, 200)
	cfg := Config{
		Problem:   prob,
		Schedule:  sched,
		Placement: pl,
		Horizon:   10,
		Seed:      5,
		FaultPlan: &FaultPlan{Outages: []Outage{{Node: "a", DownAt: 2, UpAt: 4}}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Downtime["a"]; got != 2 {
		t.Errorf("downtime[a] = %v, want exactly 2", got)
	}
	if _, ok := res.Downtime["b"]; ok {
		t.Error("node b never failed but has downtime")
	}
	if res.FailureDrops == 0 {
		t.Error("outage during traffic produced no failure drops")
	}
	fKey := InstanceKey{VNF: "f", Instance: 0}
	if res.FailureDropsByInstance[fKey] == 0 {
		t.Error("failed instance f/0 recorded no failure drops")
	}
	total := 0
	for _, n := range res.FailureDropsByInstance {
		total += n
	}
	if total != res.FailureDrops {
		t.Errorf("per-instance failure drops sum %d != total %d", total, res.FailureDrops)
	}
	checkConservation(t, cfg, res)

	base, err := Run(Config{Problem: prob, Schedule: sched, Placement: pl, Horizon: 10, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Availability >= base.Availability {
		t.Errorf("availability with outage %v not below fault-free %v", res.Availability, base.Availability)
	}
	if base.FailureDrops != 0 || len(base.Downtime) != 0 {
		t.Error("fault-free run reported failure drops or downtime")
	}
}

// TestOverlappingOutagesMergeDowntime asserts overlapping down intervals are
// merged, not double-counted, and intervals open at the horizon are clipped.
func TestOverlappingOutagesMergeDowntime(t *testing.T) {
	prob, sched, pl := faultProblem(10, 100)
	res, err := Run(Config{
		Problem:   prob,
		Schedule:  sched,
		Placement: pl,
		Horizon:   10,
		Seed:      1,
		FaultPlan: &FaultPlan{Outages: []Outage{
			{Node: "a", DownAt: 1, UpAt: 3},
			{Node: "a", DownAt: 2, UpAt: 5},
			{Node: "a", DownAt: 9, UpAt: 99}, // still open at the horizon
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Downtime["a"]; got != 5 {
		t.Errorf("downtime[a] = %v, want 5 (merged [1,5] plus clipped [9,10])", got)
	}
}

// TestFailRetransmitRecoversPackets asserts the NACK path survives an outage
// with zero permanent loss: every packet alive at the failure is re-injected
// and eventually delivered or still in flight.
func TestFailRetransmitRecoversPackets(t *testing.T) {
	prob, sched, pl := faultProblem(50, 200)
	cfg := Config{
		Problem:         prob,
		Schedule:        sched,
		Placement:       pl,
		Horizon:         10,
		Seed:            5,
		FailurePolicy:   FailRetransmit,
		RetransmitDelay: 0.02,
		FaultPlan:       &FaultPlan{Outages: []Outage{{Node: "a", DownAt: 2, UpAt: 4}}},
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FailRetransmits == 0 {
		t.Error("outage under FailRetransmit triggered no retransmissions")
	}
	if res.FailureDrops != 0 {
		t.Errorf("FailRetransmit permanently lost %d packets", res.FailureDrops)
	}
	checkConservation(t, cfg, res)
	// Retries during the outage bounce off the down node and re-inject, so
	// retransmissions far exceed the packets caught at the failure instant.
	if res.FailRetransmits < res.FailureDrops {
		t.Errorf("retransmit accounting inconsistent: %d", res.FailRetransmits)
	}
}

// replaceHook is a minimal self-healing Controller: when node a dies it boots
// a replacement instance of f on node b after a fixed setup cost and reroutes
// the request to it.
type replaceHook struct {
	nopController
	t     *testing.T
	setup float64
	done  bool
}

func (h *replaceHook) NodeDown(now float64, node model.NodeID, ctrl *ControlPlane) {
	if h.done || node != "a" {
		return
	}
	h.done = true
	k, err := ctrl.AddInstance("f", "b", now+h.setup)
	if err != nil {
		h.t.Fatalf("AddInstance: %v", err)
	}
	if err := ctrl.Reassign("r", "f", k); err != nil {
		h.t.Fatalf("Reassign: %v", err)
	}
	if ctrl.Now() != now {
		h.t.Errorf("ControlPlane.Now() = %v, want %v", ctrl.Now(), now)
	}
	if ctrl.NodeIsUp("a") {
		h.t.Error("node a reported up inside its NodeDown hook")
	}
	if !ctrl.NodeIsUp("b") {
		h.t.Error("node b reported down")
	}
}

// TestFaultHookReplacementImprovesAvailability runs the same long outage with
// and without a replacement hook: booting a substitute instance on the
// surviving node must strictly raise availability at the same seed.
func TestFaultHookReplacementImprovesAvailability(t *testing.T) {
	prob, sched, pl := faultProblem(50, 200)
	outage := &FaultPlan{Outages: []Outage{{Node: "a", DownAt: 2, UpAt: 9}}}
	base := Config{
		Problem:   prob,
		Schedule:  sched,
		Placement: pl,
		Horizon:   10,
		Seed:      5,
		FaultPlan: outage,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	healed := base
	healed.Controller = &replaceHook{t: t, setup: 0.1}
	repaired, err := Run(healed)
	if err != nil {
		t.Fatal(err)
	}
	if repaired.Generated != plain.Generated {
		t.Fatalf("arrival stream diverged: %d vs %d generated", repaired.Generated, plain.Generated)
	}
	if repaired.Availability <= plain.Availability {
		t.Errorf("replacement hook availability %v not above unrepaired %v",
			repaired.Availability, plain.Availability)
	}
	if repaired.FailureDrops >= plain.FailureDrops {
		t.Errorf("replacement hook failure drops %d not below unrepaired %d",
			repaired.FailureDrops, plain.FailureDrops)
	}
	// The replacement instance must have served packets.
	served := false
	for k := range repaired.Utilization {
		if k.VNF == "f" && k.Instance >= 1 && repaired.Utilization[k] > 0 {
			served = true
		}
	}
	if !served {
		t.Error("replacement instance of f never served")
	}
	checkConservation(t, healed, repaired)
}

// TestFaultConfigValidation covers the fault-specific rejection paths.
func TestFaultConfigValidation(t *testing.T) {
	prob, sched, pl := faultProblem(10, 100)
	base := func() Config {
		return Config{Problem: prob, Schedule: sched, Placement: pl, Horizon: 1}
	}
	cases := map[string]func(*Config){
		"nan mtbf":       func(c *Config) { c.FaultPlan = &FaultPlan{MTBF: math.NaN(), MTTR: 1} },
		"negative mtbf":  func(c *Config) { c.FaultPlan = &FaultPlan{MTBF: -1, MTTR: 1} },
		"nan mttr":       func(c *Config) { c.FaultPlan = &FaultPlan{MTBF: 1, MTTR: math.NaN()} },
		"zero mttr":      func(c *Config) { c.FaultPlan = &FaultPlan{MTBF: 1} },
		"inf mttr":       func(c *Config) { c.FaultPlan = &FaultPlan{MTBF: 1, MTTR: math.Inf(1)} },
		"unknown node":   func(c *Config) { c.FaultPlan = &FaultPlan{Outages: []Outage{{Node: "ghost", DownAt: 1, UpAt: 2}}} },
		"negative down":  func(c *Config) { c.FaultPlan = &FaultPlan{Outages: []Outage{{Node: "a", DownAt: -1, UpAt: 2}}} },
		"nan down":       func(c *Config) { c.FaultPlan = &FaultPlan{Outages: []Outage{{Node: "a", DownAt: math.NaN(), UpAt: 2}}} },
		"up before down": func(c *Config) { c.FaultPlan = &FaultPlan{Outages: []Outage{{Node: "a", DownAt: 2, UpAt: 2}}} },
		"nan up":         func(c *Config) { c.FaultPlan = &FaultPlan{Outages: []Outage{{Node: "a", DownAt: 1, UpAt: math.NaN()}}} },
		"no placement":   func(c *Config) { c.Placement = nil; c.FaultPlan = &FaultPlan{MTBF: 1, MTTR: 1} },
		"bad policy":     func(c *Config) { c.FailurePolicy = FailurePolicy(99) },
		"retransmit delay 0": func(c *Config) {
			c.FaultPlan = &FaultPlan{MTBF: 1, MTTR: 1}
			c.FailurePolicy = FailRetransmit
		},
		"retransmit delay nan": func(c *Config) {
			c.FaultPlan = &FaultPlan{MTBF: 1, MTTR: 1}
			c.FailurePolicy = FailRetransmit
			c.RetransmitDelay = math.NaN()
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			cfg := base()
			mutate(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("invalid fault config accepted")
			}
		})
	}
	// Infinite MTBF disables random faults and must be accepted without MTTR.
	cfg := base()
	cfg.FaultPlan = &FaultPlan{MTBF: math.Inf(1)}
	if _, err := Run(cfg); err != nil {
		t.Errorf("infinite MTBF rejected: %v", err)
	}
}

// TestFaultStateDoesNotLeakAcrossReset runs a heavily faulted config and then
// a fault-free golden-style config on the same Simulator, asserting the
// second run is bit-identical to a fresh one.
func TestFaultStateDoesNotLeakAcrossReset(t *testing.T) {
	prob, sched, pl := faultProblem(40, 60)
	faulted := Config{
		Problem:         prob,
		Schedule:        sched,
		Placement:       pl,
		Horizon:         15,
		FailurePolicy:   FailRetransmit,
		RetransmitDelay: 0.01,
		FaultPlan:       &FaultPlan{MTBF: 3, MTTR: 1},
		Seed:            9,
	}
	clean := Config{Problem: prob, Schedule: sched, Placement: pl, Horizon: 15, Seed: 9}

	var sim Simulator
	if err := sim.Reset(faulted); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if err := sim.Reset(clean); err != nil {
		t.Fatal(err)
	}
	reused, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := Run(clean)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fingerprintResults(reused), fingerprintResults(fresh); got != want {
		t.Errorf("fault state leaked across Reset: fingerprint %#x != fresh %#x", got, want)
	}
	if reused.FailureDrops != 0 || reused.FailRetransmits != 0 || len(reused.Downtime) != 0 {
		t.Error("fault counters leaked into a fault-free run")
	}
}

// TestRandomFaultsDeterministic asserts the random fault chain is a pure
// function of the seed: identical configs produce identical results, and the
// fault sample path is independent of the failure policy (packet handling
// changes; node up/down times must not).
func TestRandomFaultsDeterministic(t *testing.T) {
	prob, sched, pl := faultProblem(40, 60)
	cfg := Config{
		Problem:   prob,
		Schedule:  sched,
		Placement: pl,
		Horizon:   20,
		FaultPlan: &FaultPlan{MTBF: 3, MTTR: 1},
		Seed:      4,
	}
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fingerprintResults(a) != fingerprintResults(b) {
		t.Error("identical faulted configs diverged")
	}
	retr := cfg
	retr.FailurePolicy = FailRetransmit
	retr.RetransmitDelay = 0.01
	c, err := Run(retr)
	if err != nil {
		t.Fatal(err)
	}
	for n, dt := range a.Downtime {
		if c.Downtime[n] != dt {
			t.Errorf("node %s downtime %v under FailDrop vs %v under FailRetransmit — fault stream not isolated", n, dt, c.Downtime[n])
		}
	}
	if len(a.Downtime) == 0 {
		t.Fatal("MTBF=3 over horizon 20 produced no downtime — fixture too weak")
	}
}
