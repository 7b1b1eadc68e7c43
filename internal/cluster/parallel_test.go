package cluster

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"nfvchain/internal/model"
	"nfvchain/internal/simulate"
)

// diffProblem is a compact two-stage datacenter problem: one local flow plus
// two globally routed flows sharing the chain. withGlobals=false drops the
// global requests, producing a datacenter that cannot serve them — the
// drain-to-horizon fast path for datacenters invisible to the router.
func diffProblem(withGlobals bool) (*model.Problem, *model.Schedule) {
	prob := &model.Problem{
		Nodes: []model.Node{{ID: "n", Capacity: 1000}},
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
	return prob, sched
}

// diffFixture builds a 4-datacenter cluster for the driver differential:
// datacenters 0-2 serve both global flows (homed at 0 and 1), datacenter 3
// serves neither.
func diffFixture(wan float64, router Router, workers int, horizon float64) (Config, error) {
	full, fullSched := diffProblem(true)
	localOnly, localSched := diffProblem(false)
	cfg := Config{WANLatency: wan, Router: router, Seed: 9, Workers: workers}
	for d := 0; d < 4; d++ {
		prob, sched := full, fullSched
		if d == 3 {
			prob, sched = localOnly, localSched
		}
		cfg.Datacenters = append(cfg.Datacenters, Datacenter{
			Name: fmt.Sprintf("dc%d", d),
			Sim: simulate.Config{
				Problem: prob, Schedule: sched,
				Horizon: horizon, Warmup: 1, Seed: uint64(50 + d),
			},
		})
	}
	cfg.Global = []GlobalRequest{
		{ID: "g0", Rate: 40, Home: 0},
		{ID: "g1", Rate: 25, Home: 1},
	}
	return cfg, nil
}

// runDiff executes one fixture and returns its Results.
func runDiff(t *testing.T, wan float64, router Router, workers int) *Results {
	t.Helper()
	cfg, err := diffFixture(wan, router, workers, 8)
	if err != nil {
		t.Fatal(err)
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

// TestClusterParallelDifferential pins the windowed driver's contract: every
// positive Workers value produces bit-identical per-datacenter fingerprints
// and routing counters to the sequential driver, across every built-in
// router and with and without WAN latency.
func TestClusterParallelDifferential(t *testing.T) {
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, router := range []Router{LocalityFirst{}, LeastLoaded{}, Weighted{}} {
		for _, wan := range []float64{0, 0.005} {
			base := runDiff(t, wan, router, 0)
			if base.RoutedLocal+base.WANHops == 0 {
				t.Fatalf("%s/wan=%v: baseline routed no global packets", router.Name(), wan)
			}
			for _, workers := range workerCounts {
				name := fmt.Sprintf("%s/wan=%v/workers=%d", router.Name(), wan, workers)
				t.Run(name, func(t *testing.T) {
					got := runDiff(t, wan, router, workers)
					for d := range base.Datacenters {
						fb := fingerprint(base.Datacenters[d].Results)
						fg := fingerprint(got.Datacenters[d].Results)
						if fb != fg {
							t.Errorf("datacenter %d fingerprint = %#x, want sequential %#x", d, fg, fb)
						}
					}
					if got.Generated != base.Generated || got.Delivered != base.Delivered ||
						got.WANHops != base.WANHops || got.RoutedLocal != base.RoutedLocal ||
						got.Rejected != base.Rejected || got.Truncated != base.Truncated {
						t.Errorf("aggregates diverged:\n got %+v\nwant %+v", got, base)
					}
					for d := range base.RoutedByDC {
						if got.RoutedByDC[d] != base.RoutedByDC[d] {
							t.Errorf("RoutedByDC[%d] = %d, want %d", d, got.RoutedByDC[d], base.RoutedByDC[d])
						}
					}
				})
			}
		}
	}
}

// TestClusterWindowedSingleDCGolden re-pins the N=1 plain-Simulator
// equivalence golden under the windowed driver: windowing must not move the
// composition's bit-exact fingerprint.
func TestClusterWindowedSingleDCGolden(t *testing.T) {
	const plainGolden = 0x4af579b7b3270177
	for _, workers := range []int{1, 2} {
		c, err := New(Config{
			Datacenters: []Datacenter{{Name: "solo", Sim: fixtureSim(t, 11)}},
			Workers:     workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := fingerprint(res.Datacenters[0].Results); got != plainGolden {
			t.Errorf("workers=%d: N=1 fingerprint = %#x, want %#x", workers, got, plainGolden)
		}
	}
}

// TestClusterParallelCancellation asserts the windowed driver aborts promptly
// when the context is cancelled mid-window: the long-horizon fixture would
// take far longer to drain than the allowed deadline, and the chunked drains
// check the context between batches.
func TestClusterParallelCancellation(t *testing.T) {
	cfg, err := diffFixture(0.005, LeastLoaded{}, 4, 3000)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	timer := time.AfterFunc(50*time.Millisecond, cancel)
	defer timer.Stop()
	defer cancel()
	start := time.Now()
	_, err = c.RunContext(ctx)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("cancelled windowed run succeeded")
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
	}
}

// TestClusterWindowedValidation covers the Workers knob's validation.
func TestClusterWindowedValidation(t *testing.T) {
	cfg, err := diffFixture(0, nil, -1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(cfg); err == nil {
		t.Error("New accepted negative Workers")
	}
}
