package simulate

import (
	"testing"

	"nfvchain/internal/scheduling"
	"nfvchain/internal/workload"
)

// TestSimulatorReuseMatchesFreshRuns pins the Reset contract: one Simulator
// driven through a sequence of heterogeneous configs (different seeds,
// buffering, drop policies, distributions) must produce bit-identical results
// to a fresh package-level Run per config. Any state leaking across Resets —
// a stale ring-buffer entry, an unzeroed arena slot, a retained sample —
// changes a fingerprint.
func TestSimulatorReuseMatchesFreshRuns(t *testing.T) {
	wcfg := workload.DefaultConfig()
	wcfg.Seed = 11
	p, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduling.ScheduleAll(p, scheduling.RCKK{})
	if err != nil {
		t.Fatal(err)
	}
	configs := []Config{
		{Horizon: 5, Warmup: 1, Seed: 7},
		{Horizon: 5, Warmup: 1, Seed: 8}, // same shape, new seed: arena reuse
		{Horizon: 5, Warmup: 1, Seed: 7, BufferSize: 2},
		{Horizon: 2, Seed: 7, BufferSize: 2, DropPolicy: DropRetransmit, RetransmitDelay: 0.004},
		{Horizon: 4, Warmup: 1, Seed: 3, ServiceDist: ServiceLogNormal},
		{Horizon: 5, Warmup: 1, Seed: 7}, // repeat of the first: full cycle back
	}
	sim := NewSimulator()
	for i, cfg := range configs {
		cfg.Problem, cfg.Schedule = p, sched
		fresh, err := Run(cfg)
		if err != nil {
			t.Fatalf("config %d: fresh run: %v", i, err)
		}
		if err := sim.Reset(cfg); err != nil {
			t.Fatalf("config %d: reset: %v", i, err)
		}
		reused, err := sim.Run()
		if err != nil {
			t.Fatalf("config %d: reused run: %v", i, err)
		}
		// Fingerprint the reused Results immediately — it aliases the
		// simulator's buffers and is only valid until the next Reset.
		if ff, fr := fingerprintResults(fresh), fingerprintResults(reused); ff != fr {
			t.Errorf("config %d: reused simulator diverged from fresh run: %#x vs %#x", i, fr, ff)
		}
	}
}

// TestSimulatorReuseAllocs pins the allocation floor of the Reset path
// exactly: a reused Simulator rerunning one fixed-seed Poisson-default
// config allocates nothing per run, at 5 requests and at 200. Rerunning
// the same seed keeps every arena at its high-water mark, so the count is
// an exact integer, not a mean that depends on the iteration count.
func TestSimulatorReuseAllocs(t *testing.T) {
	perRun := func(requests int) float64 {
		wcfg := workload.DefaultConfig()
		wcfg.Seed = 11
		wcfg.NumRequests = requests
		p, err := workload.Generate(wcfg)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := scheduling.ScheduleAll(p, scheduling.RCKK{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Problem: p, Schedule: sched, Horizon: 2, Warmup: 0.5, Seed: 7}
		sim := NewSimulator()
		return testing.AllocsPerRun(3, func() {
			if err := sim.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			if _, err := sim.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, paper := perRun(5), perRun(200)
	if small != paper || paper != 0 {
		t.Errorf("allocs per reused run: %v at 5 requests, %v at 200, want 0 at both", small, paper)
	}
}

// TestSimulatorRunRequiresReset pins the misuse error path.
func TestSimulatorRunRequiresReset(t *testing.T) {
	if _, err := NewSimulator().Run(); err == nil {
		t.Fatal("Run before Reset succeeded, want error")
	}
}
