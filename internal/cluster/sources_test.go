package cluster

import (
	"testing"

	"nfvchain/internal/rng"
	"nfvchain/internal/workload"
)

// TestClusterSourceMatchesRate pins the GlobalRequest.Source seam: a custom
// Poisson source on the same derived stream the driver would use for Rate
// must reproduce the Rate-driven run bit for bit, under both the sequential
// and the windowed driver.
func TestClusterSourceMatchesRate(t *testing.T) {
	for _, workers := range []int{0, 2} {
		run := func(useSource bool) *Results {
			cfg := clusterFixture(t, 3, 0.25, LeastLoaded{}, 30)
			cfg.Workers = workers
			if useSource {
				g := &cfg.Global[0]
				g.Source = workload.NewPoisson(g.Rate, rng.Derive(cfg.Seed, "cluster/arrivals/"+string(g.ID)))
				g.Rate = 0 // Rate must be ignored (and not validated) with a Source
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
		a, b := run(false), run(true)
		for d := range a.Datacenters {
			if fa, fb := fingerprint(a.Datacenters[d].Results), fingerprint(b.Datacenters[d].Results); fa != fb {
				t.Errorf("workers=%d: datacenter %d diverged between Rate and Source runs: %#x vs %#x",
					workers, d, fa, fb)
			}
		}
		if a.WANHops != b.WANHops || a.RoutedLocal != b.RoutedLocal || a.Generated != b.Generated {
			t.Errorf("workers=%d: routing diverged between Rate and Source runs", workers)
		}
	}
}

// TestClusterBurstySource smoke-tests a genuinely non-Poisson global flow: an
// MMPP source drives cross-datacenter arrivals and the run still satisfies
// the routing accounting invariants.
func TestClusterBurstySource(t *testing.T) {
	cfg := clusterFixture(t, 2, 0.1, LeastLoaded{}, 0)
	g := &cfg.Global[0]
	g.Rate = 0
	g.Source = workload.NewMMPP(150, 1, 4, rng.Derive(cfg.Seed, "bursty"))
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	routed := 0
	for _, n := range res.RoutedByDC {
		routed += n
	}
	if routed == 0 {
		t.Fatal("bursty source produced no routed arrivals")
	}
	if res.WANHops+res.RoutedLocal != routed {
		t.Errorf("WANHops %d + RoutedLocal %d != routed %d", res.WANHops, res.RoutedLocal, routed)
	}
}

// TestClusterSourceValidation keeps Rate validation for sourceless flows and
// drops it for sourced ones; an exhausted source retires the flow cleanly.
func TestClusterSourceValidation(t *testing.T) {
	cfg := clusterFixture(t, 2, 0, nil, 0) // rate 0 and no source: invalid
	if _, err := New(cfg); err == nil {
		t.Fatal("rate 0 without a source accepted")
	}
	cfg.Global[0].Source = emptySource{}
	c, err := New(cfg) // rate 0 with a source: valid
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run()
	if err != nil {
		t.Fatal(err)
	}
	routed := 0
	for _, n := range res.RoutedByDC {
		routed += n
	}
	if routed != 0 {
		t.Errorf("exhausted source routed %d arrivals", routed)
	}
	if res.Generated == 0 {
		t.Error("local traffic vanished with an exhausted global source")
	}
}

// emptySource is an immediately exhausted arrival source.
type emptySource struct{}

func (emptySource) Next(after float64) (float64, bool) { return 0, false }

// TestClusterRetiresBackwardSource: a global source that returns a time
// earlier than the one asked for is retired, as workload.MergedStream
// retires it, rather than clamped to the pull time, where it would inject
// one arrival per pull at a single instant.
func TestClusterRetiresBackwardSource(t *testing.T) {
	for _, workers := range []int{0, 2} {
		cfg := clusterFixture(t, 1, 0, LeastLoaded{}, 0)
		cfg.Workers = workers
		cfg.Global[0].Source = &backwardSource{first: 0.5, left: 49}
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run()
		if err != nil {
			t.Fatal(err)
		}
		routed := 0
		for _, n := range res.RoutedByDC {
			routed += n
		}
		if routed+res.Rejected != 1 {
			t.Errorf("workers=%d: %d global arrivals injected, want 1", workers, routed+res.Rejected)
		}
	}
}

// backwardSource arrives at first, then answers left more pulls with a
// time 1 ms before the one asked for, then is exhausted.
type backwardSource struct {
	first float64
	left  int
	began bool
}

func (s *backwardSource) Next(after float64) (float64, bool) {
	if !s.began {
		s.began = true
		return s.first, true
	}
	if s.left == 0 {
		return 0, false
	}
	s.left--
	return after - 0.001, true
}
