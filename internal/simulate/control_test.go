package simulate

import (
	"math"
	"testing"

	"nfvchain/internal/model"
)

// nopController is the no-op base test controllers embed for the callbacks
// they ignore.
type nopController struct{}

func (nopController) NodeDown(float64, model.NodeID, *ControlPlane)                    {}
func (nopController) NodeUp(float64, model.NodeID, *ControlPlane)                      {}
func (nopController) PreemptionNotice(float64, []model.NodeID, float64, *ControlPlane) {}
func (nopController) Tick(float64, *ControlPlane)                                      {}

// tickHook is a test controller that only ticks.
type tickHook struct {
	nopController
	tick func(now float64, cp *ControlPlane)
}

func (h tickHook) Tick(now float64, cp *ControlPlane) { h.tick(now, cp) }

// onTick adapts a func to a Controller that only ticks.
func onTick(tick func(now float64, cp *ControlPlane)) Controller { return tickHook{tick: tick} }

// controlConfig returns a valid control-enabled config over the fault fixture.
func controlConfig(hook Controller, interval float64) Config {
	prob, sched, pl := faultProblem(40, 100)
	return Config{
		Problem:         prob,
		Schedule:        sched,
		Placement:       pl,
		Horizon:         10,
		LinkDelay:       0.001,
		Seed:            3,
		Controller:      hook,
		ControlInterval: interval,
	}
}

func TestControlConfigValidation(t *testing.T) {
	hook := onTick(func(float64, *ControlPlane) {})
	for name, interval := range map[string]float64{
		"negative interval": -1,
		"NaN interval":      math.NaN(),
		"infinite interval": math.Inf(1),
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := Run(controlConfig(hook, interval)); err == nil {
				t.Error("invalid control interval accepted")
			}
		})
	}
	// An interval of 0 is the controller that only hears of node
	// transitions: it is accepted, needs no Placement, and never ticks.
	t.Run("zero interval", func(t *testing.T) {
		ticked := false
		cfg := controlConfig(onTick(func(float64, *ControlPlane) { ticked = true }), 0)
		cfg.Placement = nil
		if _, err := Run(cfg); err != nil {
			t.Fatalf("controller without ticks rejected: %v", err)
		}
		if ticked {
			t.Error("an interval of 0 ticked")
		}
	})
	t.Run("nil placement", func(t *testing.T) {
		cfg := controlConfig(hook, 1)
		cfg.Placement = nil
		if _, err := Run(cfg); err == nil {
			t.Error("ticking controller without placement accepted")
		}
	})
}

// TestControlTickSchedule pins the tick cadence: first tick at Interval, then
// every Interval, strictly before the horizon, with monotone window lengths.
func TestControlTickSchedule(t *testing.T) {
	var times []float64
	hook := onTick(func(now float64, cp *ControlPlane) {
		times = append(times, now)
		want := 1.0
		if len(times) == 1 {
			want = 1.0 // first window spans [0, Interval)
		}
		if cp.Window() != want {
			t.Errorf("tick at %v: window %v, want %v", now, cp.Window(), want)
		}
	})
	if _, err := Run(controlConfig(hook, 1)); err != nil {
		t.Fatal(err)
	}
	if len(times) != 9 {
		t.Fatalf("got %d ticks, want 9: %v", len(times), times)
	}
	for i, at := range times {
		if at != float64(i+1) {
			t.Errorf("tick %d at %v, want %d", i, at, i+1)
		}
	}
}

// TestControlObservation sanity-checks the per-instance observations: keys
// cover the deployment, utilization is a fraction, and the busy instance of a
// saturated VNF reads hot.
func TestControlObservation(t *testing.T) {
	var obs []InstanceObs
	hook := onTick(func(now float64, cp *ControlPlane) {
		obs = cp.Instances(obs[:0])
	})
	cfg := controlConfig(hook, 1)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if len(obs) != 2 {
		t.Fatalf("observed %d instances, want 2", len(obs))
	}
	for _, o := range obs {
		if o.Utilization < 0 || o.Utilization > 1+1e-9 {
			t.Errorf("instance %v utilization %v outside [0,1]", o.Key, o.Utilization)
		}
		if o.Node == "" || o.Down || o.Retired {
			t.Errorf("unexpected observation state: %+v", o)
		}
		// λ=40 against µ=100 keeps each single-instance VNF around ρ ≈ 0.4.
		if o.Utilization == 0 {
			t.Errorf("instance %v read idle under sustained load", o.Key)
		}
	}
}

// TestShedFraction pins the deterministic shedding valve: a half-rate shed
// sheds half the subsequent admissions exactly (error-accumulator, no RNG),
// keeps the ledger balanced, and leaves the arrival streams untouched.
func TestShedFraction(t *testing.T) {
	plain, err := Run(controlConfig(nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	hook := onTick(func(now float64, cp *ControlPlane) {
		if err := cp.SetShedFraction(0.5); err != nil {
			t.Fatal(err)
		}
	})
	shed, err := Run(controlConfig(hook, 1))
	if err != nil {
		t.Fatal(err)
	}
	if shed.Generated != plain.Generated {
		t.Fatalf("shedding perturbed arrivals: %d vs %d generated", shed.Generated, plain.Generated)
	}
	if shed.Shed == 0 {
		t.Fatal("half-rate valve shed nothing")
	}
	if got := shed.Delivered + shed.InFlight + shed.Dropped + shed.FailureDrops + shed.Shed; got != shed.Generated {
		t.Errorf("conservation violated: %d != %d", got, shed.Generated)
	}
	if shed.Delivered >= plain.Delivered {
		t.Errorf("shed run delivered %d, not below full admission %d", shed.Delivered, plain.Delivered)
	}
}

func TestSetShedFractionValidation(t *testing.T) {
	hook := onTick(func(now float64, cp *ControlPlane) {
		for _, bad := range []float64{math.NaN(), -0.1, 1.1} {
			if err := cp.SetShedFraction(bad); err == nil {
				t.Errorf("shed fraction %v accepted", bad)
			}
		}
		if cp.ShedFraction() != 0 {
			t.Errorf("rejected fractions leaked: %v", cp.ShedFraction())
		}
	})
	if _, err := Run(controlConfig(hook, 5)); err != nil {
		t.Fatal(err)
	}
}

// TestMigrateInstance moves a live instance mid-run: the run must stay
// conservative, the instance must keep serving from its new host, and the
// error paths must reject unknown targets and past resume times.
func TestMigrateInstance(t *testing.T) {
	migrated := false
	hook := onTick(func(now float64, cp *ControlPlane) {
		if migrated {
			return
		}
		migrated = true
		if err := cp.MigrateInstance("f", 0, "b", now+0.05); err != nil {
			t.Fatal(err)
		}
		if err := cp.MigrateInstance("bogus", 0, "b", now); err == nil {
			t.Error("migrating unknown vnf accepted")
		}
		if err := cp.MigrateInstance("f", 0, "nowhere", now); err == nil {
			t.Error("migrating to unknown node accepted")
		}
		if err := cp.MigrateInstance("f", 0, "b", now-1); err == nil {
			t.Error("resume time in the past accepted")
		}
	})
	res, err := Run(controlConfig(hook, 2))
	if err != nil {
		t.Fatal(err)
	}
	if !migrated {
		t.Fatal("hook never ran")
	}
	if res.Delivered == 0 {
		t.Error("nothing delivered after migration")
	}
	if got := res.Delivered + res.InFlight + res.Dropped + res.FailureDrops; got != res.Generated {
		t.Errorf("conservation violated after migration: %d != %d", got, res.Generated)
	}
	// Both chain stages now share node b, so the migrated deployment must
	// still record utilization for both instances.
	for _, key := range []InstanceKey{{VNF: "f", Instance: 0}, {VNF: "g", Instance: 0}} {
		if res.Utilization[key] <= 0 {
			t.Errorf("instance %v idle after migration", key)
		}
	}
}

// TestRemoveInstanceGuard pins the retirement contract: an instance still
// routed to cannot retire; after rerouting, removal succeeds and the run
// drains without losing packets.
func TestRemoveInstanceGuard(t *testing.T) {
	prob, sched, pl := faultProblem(40, 100)
	prob.VNFs[0].Instances = 2 // f gains a second base instance
	acted := false
	hook := onTick(func(now float64, cp *ControlPlane) {
		if acted {
			return
		}
		acted = true
		// The only request routes through f instance 0: removing it must fail.
		if err := cp.RemoveInstance("f", 0); err == nil {
			t.Error("removed an instance with routed requests")
		}
		if err := cp.Reassign("r", "f", 1); err != nil {
			t.Fatal(err)
		}
		if err := cp.RemoveInstance("f", 0); err != nil {
			t.Errorf("removal after reroute failed: %v", err)
		}
		if err := cp.RemoveInstance("f", 9); err == nil {
			t.Error("removed a nonexistent instance")
		}
	})
	res, err := Run(Config{
		Problem: prob, Schedule: sched, Placement: pl,
		Horizon: 10, LinkDelay: 0.001, Seed: 3,
		Controller: hook, ControlInterval: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !acted {
		t.Fatal("hook never ran")
	}
	if got := res.Delivered + res.InFlight + res.Dropped + res.FailureDrops; got != res.Generated {
		t.Errorf("conservation violated after retirement: %d != %d", got, res.Generated)
	}
	if res.Delivered == 0 {
		t.Error("nothing delivered after retirement")
	}
}

func TestPreemptionPlanValidation(t *testing.T) {
	prob, sched, pl := faultProblem(40, 100)
	for name, pp := range map[string]*PreemptionPlan{
		"zero interval":     {MeanInterval: 0, GroupSize: 1, Recovery: 1},
		"infinite interval": {MeanInterval: math.Inf(1), GroupSize: 1, Recovery: 1},
		"zero group":        {MeanInterval: 1, GroupSize: 0, Recovery: 1},
		"zero recovery":     {MeanInterval: 1, GroupSize: 1, Recovery: 0},
		"negative lead":     {MeanInterval: 1, GroupSize: 1, Recovery: 1, LeadTime: -1},
		"NaN lead":          {MeanInterval: 1, GroupSize: 1, Recovery: 1, LeadTime: math.NaN()},
	} {
		t.Run(name, func(t *testing.T) {
			_, err := Run(Config{
				Problem: prob, Schedule: sched, Placement: pl,
				Horizon: 5, Seed: 1,
				FaultPlan: &FaultPlan{Preemption: pp},
			})
			if err == nil {
				t.Error("invalid preemption plan accepted")
			}
		})
	}
}

// noticeRecorder records preemption notices and node transitions.
type noticeRecorder struct {
	nopController
	notices  []noticeEvent
	downs    map[model.NodeID][]float64
	failDown int
}

type noticeEvent struct {
	at, downAt float64
	nodes      []model.NodeID
}

func (h *noticeRecorder) NodeDown(now float64, n model.NodeID, cp *ControlPlane) {
	if h.downs == nil {
		h.downs = make(map[model.NodeID][]float64)
	}
	h.downs[n] = append(h.downs[n], now)
	h.failDown++
}
func (h *noticeRecorder) PreemptionNotice(now float64, nodes []model.NodeID, downAt float64, cp *ControlPlane) {
	h.notices = append(h.notices, noticeEvent{at: now, downAt: downAt, nodes: append([]model.NodeID(nil), nodes...)})
}

// TestPreemptionNotice pins the advance-notice contract: each notice precedes
// its loss by up to LeadTime, names GroupSize distinct nodes, and every named
// node actually goes down at the announced time.
func TestPreemptionNotice(t *testing.T) {
	prob, sched, pl := faultProblem(40, 100)
	rec := &noticeRecorder{}
	res, err := Run(Config{
		Problem: prob, Schedule: sched, Placement: pl,
		Horizon: 30, LinkDelay: 0.001, Seed: 5,
		FaultPlan: &FaultPlan{Preemption: &PreemptionPlan{
			MeanInterval: 5, GroupSize: 2, Recovery: 1, LeadTime: 0.5,
		}},
		Controller:      rec,
		FailurePolicy:   FailRetransmit,
		RetransmitDelay: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.notices) == 0 {
		t.Fatal("no preemption notices over a 30s horizon")
	}
	for _, n := range rec.notices {
		if n.at > n.downAt || n.downAt-n.at > 0.5+1e-9 {
			t.Errorf("notice at %v for loss at %v violates the lead window", n.at, n.downAt)
		}
		if len(n.nodes) != 2 || n.nodes[0] == n.nodes[1] {
			t.Errorf("notice group %v not 2 distinct nodes", n.nodes)
		}
		for _, id := range n.nodes {
			found := false
			for _, at := range rec.downs[id] {
				if at == n.downAt {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("announced loss of %s at %v never happened (downs: %v)", id, n.downAt, rec.downs[id])
			}
		}
	}
	// GroupSize 2 of 2 nodes: every preemption downs both nodes.
	if rec.failDown != 2*len(rec.notices) {
		t.Errorf("%d node-down events for %d notices", rec.failDown, len(rec.notices))
	}
	if res.FailureDrops != 0 {
		t.Errorf("FailRetransmit lost %d packets", res.FailureDrops)
	}
}

// TestPreemptionStreamIsolation asserts the dedicated preemption stream: the
// arrival sample path — hence Generated — is identical with and without
// preemption under FailRetransmit.
func TestPreemptionStreamIsolation(t *testing.T) {
	prob, sched, pl := faultProblem(40, 100)
	base := Config{
		Problem: prob, Schedule: sched, Placement: pl,
		Horizon: 20, LinkDelay: 0.001, Seed: 9,
		FailurePolicy: FailRetransmit, RetransmitDelay: 0.05,
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	withPP := base
	withPP.FaultPlan = &FaultPlan{Preemption: &PreemptionPlan{MeanInterval: 4, GroupSize: 1, Recovery: 0.5}}
	preempted, err := Run(withPP)
	if err != nil {
		t.Fatal(err)
	}
	if preempted.Generated != plain.Generated {
		t.Errorf("preemption perturbed the arrival stream: %d vs %d generated",
			preempted.Generated, plain.Generated)
	}
	if len(preempted.Downtime) == 0 {
		t.Error("preemption produced no downtime; scenario is vacuous")
	}
	// And the dedicated stream is itself deterministic.
	again, err := Run(withPP)
	if err != nil {
		t.Fatal(err)
	}
	if again.Delivered != preempted.Delivered || again.Availability != preempted.Availability {
		t.Errorf("preempted runs diverged: %d/%v vs %d/%v",
			again.Delivered, again.Availability, preempted.Delivered, preempted.Availability)
	}
}
