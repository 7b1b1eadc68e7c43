package core

import (
	"strings"
	"testing"

	"nfvchain/internal/control"
	"nfvchain/internal/model"
	"nfvchain/internal/simulate"
	"nfvchain/internal/workload"
)

// clusterSolution optimizes a small 2-region cluster for the fault-plumbing
// tests.
func clusterSolution(t *testing.T) *ClusterSolution {
	t.Helper()
	base := genProblem(t, 4)
	cs, err := OptimizeCluster(base, ClusterOptions{
		Datacenters:    2,
		GlobalFraction: 0.2,
		Options:        Options{Seed: 4, LinkDelay: 0.001},
	})
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestClusterPerDatacenterFaultPlans pins the per-region fault plumbing: a
// plan attached to region 0 only must produce downtime there and nowhere
// else, with a per-region repair controller observing exactly its own
// region's transitions — identically across the sequential and windowed drivers.
func TestClusterPerDatacenterFaultPlans(t *testing.T) {
	cs := clusterSolution(t)
	node := cs.Regions[0].Problem.Nodes[0].ID
	run := func(workers int) (*simulate.Results, *simulate.Results, control.Stats) {
		ctrl, err := control.New(control.Config{
			Problem:   cs.Regions[0].Problem,
			Placement: cs.Regions[0].Placement,
			Schedule:  cs.Regions[0].Schedule,
			Policy:    control.PolicyRepair,
			SetupCost: 0.05,
			Seed:      1,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := SimulateCluster(cs, ClusterSimConfig{
			Sim:         SimulationConfig{Horizon: 6, Warmup: 0.5, Seed: 11},
			Seed:        3,
			Workers:     workers,
			FaultPlans:  []*simulate.FaultPlan{{Outages: []simulate.Outage{{Node: node, DownAt: 1, UpAt: 3}}}, nil},
			Controllers: []simulate.Controller{ctrl, nil},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Datacenters[0].Results, res.Datacenters[1].Results, ctrl.Stats()
	}
	r0, r1, stats := run(0)
	if len(r0.Downtime) == 0 || r0.Downtime[node] <= 0 {
		t.Errorf("region 0 downtime missing: %v", r0.Downtime)
	}
	if len(r1.Downtime) != 0 {
		t.Errorf("fault plan leaked into region 1: %v", r1.Downtime)
	}
	if stats.NodeFailures != 1 || stats.NodeRecoveries != 1 {
		t.Errorf("controller saw %+v, want exactly region 0's one outage", stats)
	}
	// The windowed driver must agree bit-for-bit.
	w0, w1, wstats := run(2)
	if w0.Delivered != r0.Delivered || w0.FailureDrops != r0.FailureDrops ||
		w1.Delivered != r1.Delivered || wstats != stats {
		t.Errorf("windowed driver diverged under per-region faults: %d/%d/%d vs %d/%d/%d",
			w0.Delivered, w0.FailureDrops, w1.Delivered, r0.Delivered, r0.FailureDrops, r1.Delivered)
	}
}

// TestClusterFaultPlanValidation covers the length contract: plans and
// controllers are all-regions-or-none.
func TestClusterFaultPlanValidation(t *testing.T) {
	cs := clusterSolution(t)
	if _, err := SimulateCluster(cs, ClusterSimConfig{
		Sim:        SimulationConfig{Horizon: 2},
		FaultPlans: []*simulate.FaultPlan{{}},
	}); err == nil || !strings.Contains(err.Error(), "fault plans") {
		t.Errorf("mismatched FaultPlans accepted: %v", err)
	}
	if _, err := SimulateCluster(cs, ClusterSimConfig{
		Sim:         SimulationConfig{Horizon: 2},
		Controllers: []simulate.Controller{nil},
	}); err == nil || !strings.Contains(err.Error(), "controllers") {
		t.Errorf("mismatched Controllers accepted: %v", err)
	}
}

// nopController is the no-op base test controllers embed for the callbacks
// they ignore.
type nopController struct{}

func (nopController) NodeDown(float64, model.NodeID, *simulate.ControlPlane)                    {}
func (nopController) NodeUp(float64, model.NodeID, *simulate.ControlPlane)                      {}
func (nopController) PreemptionNotice(float64, []model.NodeID, float64, *simulate.ControlPlane) {}
func (nopController) Tick(float64, *simulate.ControlPlane)                                      {}

// tickHook counts control ticks and ignores every other callback.
type tickHook struct {
	nopController
	ticks int
}

func (h *tickHook) Tick(float64, *simulate.ControlPlane) { h.ticks++ }

// TestClusterRejectsSharedHooks pins the per-region controller rule: a
// controller is bound to one region, so with several regions Sim.Controller
// is rejected, even beside Controllers. A single region may use it, and
// every per-region controller ticks at Sim.ControlInterval.
func TestClusterRejectsSharedHooks(t *testing.T) {
	cs := clusterSolution(t)
	plan := &simulate.FaultPlan{MTBF: 1, MTTR: 0.1}
	shared := &tickHook{}
	for name, cfg := range map[string]ClusterSimConfig{
		"ticking":    {Sim: SimulationConfig{Horizon: 2, Seed: 1, Controller: shared, ControlInterval: 0.5}},
		"no ticks":   {Sim: SimulationConfig{Horizon: 2, Seed: 1, FaultPlan: plan, Controller: shared}},
		"overridden": {Sim: SimulationConfig{Horizon: 2, Seed: 1, Controller: shared}, Controllers: []simulate.Controller{&tickHook{}, &tickHook{}}},
	} {
		if _, err := SimulateCluster(cs, cfg); err == nil || !strings.Contains(err.Error(), "shared") {
			t.Errorf("%s: a controller shared by %d regions was accepted: %v", name, len(cs.Regions), err)
		}
	}

	perRegion := []*tickHook{{}, {}}
	if _, err := SimulateCluster(cs, ClusterSimConfig{
		Sim:         SimulationConfig{Horizon: 2, Seed: 1, FaultPlan: plan, ControlInterval: 0.5},
		Controllers: []simulate.Controller{perRegion[0], perRegion[1]},
	}); err != nil {
		t.Fatalf("one controller per region rejected: %v", err)
	}
	for d, h := range perRegion {
		if h.ticks != 3 { // at 0.5, 1 and 1.5 s of a 2 s horizon
			t.Errorf("region %d's controller ticked %d times, want 3", d, h.ticks)
		}
	}

	solo := &ClusterSolution{Regions: cs.Regions[:1], Names: cs.Names[:1]}
	h := &tickHook{}
	if _, err := SimulateCluster(solo, ClusterSimConfig{
		Sim: SimulationConfig{Horizon: 2, Seed: 1, FaultPlan: plan, Controller: h, ControlInterval: 0.5},
	}); err != nil {
		t.Fatalf("single region with Sim.Controller rejected: %v", err)
	}
	if h.ticks == 0 {
		t.Error("single region's Sim.Controller never ticked")
	}
}

// rowCursor is an arrival cursor over n rows for one request, one every
// 10 ms.
type rowCursor struct {
	id   model.RequestID
	i, n int
}

func (c *rowCursor) NextArrival() (float64, model.RequestID, bool) {
	if c.i == c.n {
		return 0, "", false
	}
	c.i++
	return float64(c.i) * 0.01, c.id, true
}

func (c *rowCursor) Err() error { return nil }

// fixedSource is an arrival source with one arrival every 10 ms.
type fixedSource struct{}

func (fixedSource) Next(after float64) (float64, bool) { return after + 0.01, true }

// TestClusterRejectsSharedArrivalSources pins that an arrival cursor —
// a trace stream, merged sources or an in-memory trace's cursor — which
// every region would pull from, is refused with more than one region (the
// first region to run would drain it), while one region replays all of
// the stream.
func TestClusterRejectsSharedArrivalSources(t *testing.T) {
	cs := clusterSolution(t)
	id := cs.Regions[0].Problem.Requests[0].ID
	trace := &workload.Trace{Horizon: 2, Arrivals: []workload.Arrival{{Time: 0.5, Request: id}}}
	for name, sim := range map[string]SimulationConfig{
		"trace stream": {Horizon: 2, Seed: 1, Arrivals: &rowCursor{id: id, n: 100}},
		"sources":      {Horizon: 2, Seed: 1, Arrivals: workload.NewMergedStream(map[model.RequestID]workload.Source{id: fixedSource{}})},
		"trace":        {Horizon: 2, Seed: 1, Arrivals: trace.Cursor()},
	} {
		if _, err := SimulateCluster(cs, ClusterSimConfig{Sim: sim}); err == nil || !strings.Contains(err.Error(), "shared") {
			t.Errorf("%s shared by %d regions was accepted: %v", name, len(cs.Regions), err)
		}
	}
	solo := &ClusterSolution{Regions: cs.Regions[:1], Names: cs.Names[:1]}
	res, err := SimulateCluster(solo, ClusterSimConfig{Sim: SimulationConfig{Horizon: 2, Seed: 1, Arrivals: &rowCursor{id: id, n: 100}}})
	if err != nil {
		t.Fatalf("single region with a trace stream rejected: %v", err)
	}
	if res.Generated != 100 {
		t.Errorf("single region replayed %d of the stream's 100 rows", res.Generated)
	}
}
