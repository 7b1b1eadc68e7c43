package cluster

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/simulate"
	"nfvchain/internal/workload"
)

// fingerprint mirrors the simulate package's determinism-golden hash so the
// cluster equivalence test can pin bit-identity against the same constant.
func fingerprint(res *simulate.Results) uint64 {
	h := fnv.New64a()
	writeInt := func(v int) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	writeFloat := func(v float64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	writeInt(res.Generated)
	writeInt(res.Delivered)
	writeInt(res.Retransmissions)
	writeInt(res.Dropped)
	writeFloat(res.Latency.Mean())
	writeFloat(res.Latency.Variance())
	writeFloat(res.Latency.Min())
	writeFloat(res.Latency.Max())
	for _, lat := range res.LatencySamples {
		writeFloat(lat)
	}
	keys := make([]simulate.InstanceKey, 0, len(res.Utilization))
	for k := range res.Utilization {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].VNF != keys[j].VNF {
			return keys[i].VNF < keys[j].VNF
		}
		return keys[i].Instance < keys[j].Instance
	})
	for _, k := range keys {
		h.Write([]byte(k.VNF))
		writeInt(k.Instance)
		writeFloat(res.Utilization[k])
		writeFloat(res.MeanJobs[k])
	}
	return h.Sum64()
}

// fixtureSim returns the default-workload simulation config shared with the
// simulate package's seed-determinism goldens.
func fixtureSim(t *testing.T, seed uint64) simulate.Config {
	t.Helper()
	wcfg := workload.DefaultConfig()
	wcfg.Seed = seed
	p, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduling.ScheduleAll(p, scheduling.RCKK{})
	if err != nil {
		t.Fatal(err)
	}
	return simulate.Config{Problem: p, Schedule: sched, Horizon: 20, Warmup: 2, Seed: 7}
}

// TestClusterSingleDCEquivalenceGolden pins the composition contract: one
// datacenter, zero WAN latency and no global traffic must reproduce the
// plain Simulator bit-for-bit — the same golden fingerprint the simulate
// package pins for this config (TestSeedDeterminismGolden/plain).
func TestClusterSingleDCEquivalenceGolden(t *testing.T) {
	const plainGolden = 0x4af579b7b3270177
	c, err := New(Config{Datacenters: []Datacenter{{Name: "solo", Sim: fixtureSim(t, 11)}}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Datacenters) != 1 {
		t.Fatalf("got %d datacenter results, want 1", len(res.Datacenters))
	}
	if got := fingerprint(res.Datacenters[0].Results); got != plainGolden {
		t.Errorf("N=1 cluster fingerprint = %#x, want plain-Simulator golden %#x", got, plainGolden)
	}
	direct, err := simulate.Run(fixtureSim(t, 11))
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != direct.Generated || res.Delivered != direct.Delivered ||
		res.InFlight != direct.InFlight || res.Latency != direct.Latency {
		t.Errorf("cluster aggregates diverge from the direct run: %+v vs %+v", res, direct)
	}
	if res.WANHops != 0 || res.Rejected != 0 {
		t.Errorf("no-global run counted WANHops=%d Rejected=%d", res.WANHops, res.Rejected)
	}
	if _, err := c.Run(); err == nil {
		t.Error("second Run of a single-use ClusterSimulator succeeded")
	}
}

// clusterFixture builds an n-datacenter cluster whose datacenters share one
// problem shape (distinct seeds) and serve one global request homed at 0.
func clusterFixture(t *testing.T, n int, wan float64, router Router, rate float64) Config {
	t.Helper()
	cfg := Config{WANLatency: wan, Router: router, Seed: 5}
	for d := 0; d < n; d++ {
		sim := fixtureSim(t, uint64(20+d))
		sim.Seed = uint64(100 + d)
		cfg.Datacenters = append(cfg.Datacenters, Datacenter{Sim: sim})
	}
	// Every datacenter generated from the same workload shape schedules the
	// same request IDs, so request 0 of datacenter 0's problem is servable
	// everywhere.
	cfg.Global = []GlobalRequest{{
		ID:   cfg.Datacenters[0].Sim.Problem.Requests[0].ID,
		Rate: rate,
		Home: 0,
	}}
	return cfg
}

// TestClusterGlobalRouting runs 3 datacenters with cross-datacenter traffic
// under each policy and checks the routing accounting invariants.
func TestClusterGlobalRouting(t *testing.T) {
	for _, router := range []Router{LocalityFirst{}, LeastLoaded{}, Weighted{}} {
		t.Run(router.Name(), func(t *testing.T) {
			cfg := clusterFixture(t, 3, 0.5, router, 40)
			c, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.Router != router.Name() {
				t.Errorf("Results.Router = %q, want %q", res.Router, router.Name())
			}
			totalRouted := 0
			for _, n := range res.RoutedByDC {
				totalRouted += n
			}
			if totalRouted == 0 {
				t.Fatal("no global packets were routed")
			}
			if res.WANHops+res.RoutedLocal != totalRouted {
				t.Errorf("WANHops %d + RoutedLocal %d != routed %d", res.WANHops, res.RoutedLocal, totalRouted)
			}
			if res.Rejected != 0 {
				t.Errorf("Rejected = %d on a cluster where every DC serves the request", res.Rejected)
			}
			switch router.(type) {
			case LocalityFirst:
				// The home datacenter can always serve: everything stays local.
				if res.WANHops != 0 {
					t.Errorf("locality policy paid %d WAN hops", res.WANHops)
				}
			case Weighted:
				// The deterministic WRR converges to capacity proportions.
				var caps []float64
				var totalCap float64
				for _, dc := range cfg.Datacenters {
					var c float64
					for _, n := range dc.Sim.Problem.Nodes {
						c += n.Capacity
					}
					caps = append(caps, c)
					totalCap += c
				}
				for d, n := range res.RoutedByDC {
					want := float64(totalRouted) * caps[d] / totalCap
					if math.Abs(float64(n)-want) > 2 {
						t.Errorf("weighted routing off proportion: dc%d got %d, want ~%.1f of %d", d, n, want, totalRouted)
					}
				}
			}
			if res.Generated <= totalRouted {
				t.Errorf("Generated = %d does not include local traffic beyond %d routed", res.Generated, totalRouted)
			}
		})
	}
}

// TestClusterDeterminism asserts two identical cluster runs produce
// bit-identical per-datacenter results, including under WAN routing.
func TestClusterDeterminism(t *testing.T) {
	run := func() *Results {
		c, err := New(clusterFixture(t, 3, 0.25, LeastLoaded{}, 30))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for d := range a.Datacenters {
		if fa, fb := fingerprint(a.Datacenters[d].Results), fingerprint(b.Datacenters[d].Results); fa != fb {
			t.Errorf("datacenter %d diverged across identical runs: %#x vs %#x", d, fa, fb)
		}
	}
	if a.WANHops != b.WANHops || a.RoutedLocal != b.RoutedLocal {
		t.Errorf("routing diverged: (%d,%d) vs (%d,%d)", a.WANHops, a.RoutedLocal, b.WANHops, b.RoutedLocal)
	}
}

// TestClusterWANLatency checks the entry-hop model: with the home region
// unable to serve the global request, every global packet pays the WAN hop,
// and mean global latency grows by at least that much.
func TestClusterWANLatency(t *testing.T) {
	makeCfg := func(wan float64) Config {
		cfg := Config{WANLatency: wan, Router: LeastLoaded{}, Seed: 5}
		for d := 0; d < 2; d++ {
			sim := fixtureSim(t, uint64(30+d))
			sim.Seed = uint64(200 + d)
			cfg.Datacenters = append(cfg.Datacenters, Datacenter{Sim: sim})
		}
		gid := cfg.Datacenters[0].Sim.Problem.Requests[0].ID
		// Home the request at a datacenter that cannot serve it: strip it
		// from datacenter 0's problem so every arrival is routed remotely.
		p0 := *cfg.Datacenters[0].Sim.Problem
		p0.Requests = append([]model.Request{}, p0.Requests[1:]...)
		cfg.Datacenters[0].Sim.Problem = &p0
		sched0, err := scheduling.ScheduleAll(&p0, scheduling.RCKK{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Datacenters[0].Sim.Schedule = sched0
		cfg.Global = []GlobalRequest{{ID: gid, Rate: 25, Home: 0}}
		return cfg
	}
	var lat [2]float64
	var offered [2]int
	for i, wan := range []float64{0, 1.0} {
		c, err := New(makeCfg(wan))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.RoutedLocal != 0 {
			t.Fatalf("wan=%v: %d packets served at an unserving home", wan, res.RoutedLocal)
		}
		if res.WANHops == 0 {
			t.Fatalf("wan=%v: no WAN hops recorded", wan)
		}
		// A non-zero hop can push arrivals born just before the horizon past
		// it (Truncated); the offered total is latency-invariant.
		offered[i] = res.WANHops + res.Truncated
		g := res.Datacenters[1].Results.PerRequest[model.RequestID(makeCfg(0).Global[0].ID)]
		if g == nil || g.N() == 0 {
			t.Fatalf("wan=%v: no delivered global packets measured", wan)
		}
		lat[i] = g.Mean()
	}
	if offered[0] != offered[1] {
		t.Errorf("offered global packets differ across WAN latencies: %d vs %d", offered[0], offered[1])
	}
	if lat[1]-lat[0] < 0.99 {
		t.Errorf("global mean latency grew %v for a 1s WAN hop, want >= ~1s", lat[1]-lat[0])
	}
}

// TestClusterValidation covers New's config validation.
func TestClusterValidation(t *testing.T) {
	base := fixtureSim(t, 11)
	cases := []struct {
		name string
		cfg  Config
	}{
		{"no datacenters", Config{}},
		{"negative wan", Config{WANLatency: -1, Datacenters: []Datacenter{{Sim: base}}}},
		{"mismatched horizon", func() Config {
			other := fixtureSim(t, 11)
			other.Horizon = 30
			return Config{Datacenters: []Datacenter{{Sim: base}, {Sim: other}}}
		}()},
		{"bad global rate", Config{Datacenters: []Datacenter{{Sim: base}},
			Global: []GlobalRequest{{ID: "g", Rate: 0, Home: 0}}}},
		{"bad home", Config{Datacenters: []Datacenter{{Sim: base}},
			Global: []GlobalRequest{{ID: "g", Rate: 1, Home: 3}}}},
		{"duplicate global", Config{Datacenters: []Datacenter{{Sim: base}},
			Global: []GlobalRequest{{ID: "g", Rate: 1}, {ID: "g", Rate: 2}}}},
		{"empty global id", Config{Datacenters: []Datacenter{{Sim: base}},
			Global: []GlobalRequest{{Rate: 1}}}},
		{"invalid member sim", Config{Datacenters: []Datacenter{{Sim: simulate.Config{}}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := New(tc.cfg); err == nil {
				t.Errorf("New accepted %s", tc.name)
			}
		})
	}
}

// TestClusterContextCancel asserts a cancelled context aborts the run.
func TestClusterContextCancel(t *testing.T) {
	c, err := New(clusterFixture(t, 2, 0.1, nil, 20))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.RunContext(ctx); err == nil {
		t.Error("cancelled cluster run succeeded")
	}
}

// TestParseRoutePolicy covers the flag round trip.
func TestParseRoutePolicy(t *testing.T) {
	for _, name := range []string{"locality", "least-loaded", "weighted"} {
		r, err := ParseRoutePolicy(name)
		if err != nil || r.Name() != name {
			t.Errorf("ParseRoutePolicy(%q) = %v, %v", name, r, err)
		}
	}
	if _, err := ParseRoutePolicy("bogus"); err == nil {
		t.Error("ParseRoutePolicy(bogus) succeeded")
	}
}

// TestRouterPolicies pins each built-in policy's decision on a fixed state.
func TestRouterPolicies(t *testing.T) {
	req := &GlobalRequest{ID: "g", Home: 1}
	dcs := []DCState{
		{Pending: 5, CanServe: true, Capacity: 100, Routed: 10},
		{Pending: 9, CanServe: true, Capacity: 100, Routed: 0, Home: true},
		{Pending: 1, CanServe: false, Capacity: 100},
		{Pending: 7, CanServe: true, Capacity: 400, Routed: 4},
	}
	if got := (LocalityFirst{}).Route(req, dcs); got != 1 {
		t.Errorf("locality routed to %d, want home 1", got)
	}
	if got := (LeastLoaded{}).Route(req, dcs); got != 0 {
		t.Errorf("least-loaded routed to %d, want 0 (pending 5, dc2 cannot serve)", got)
	}
	// weighted costs: dc0 11/100, dc1 1/100, dc3 5/400 → dc1 wins.
	if got := (Weighted{}).Route(req, dcs); got != 1 {
		t.Errorf("weighted routed to %d, want 1", got)
	}
	// Home cannot serve → locality falls back to least-loaded.
	dcs[1].CanServe = false
	if got := (LocalityFirst{}).Route(req, dcs); got != 0 {
		t.Errorf("locality fallback routed to %d, want 0", got)
	}
	none := []DCState{{Pending: 1}, {Pending: 2}}
	for _, r := range []Router{LocalityFirst{}, LeastLoaded{}, Weighted{}} {
		if got := r.Route(req, none); got != -1 {
			t.Errorf("%s routed to %d with no serving datacenter, want -1", r.Name(), got)
		}
	}
}
