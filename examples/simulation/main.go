// Model validation: run the joint optimizer, predict per-request latency
// analytically from the open Jackson network (Eq. 16), then replay the same
// system in the packet-level discrete-event simulator — first with live
// Poisson arrivals, then trace-driven — and compare the two.
package main

import (
	"fmt"
	"math"
	"os"
	"sort"

	nfvchain "nfvchain"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "simulation:", err)
		os.Exit(1)
	}
}

func run() error {
	cfg := nfvchain.DefaultWorkloadConfig()
	cfg.Seed = 11
	cfg.NumRequests = 60
	cfg.NumVNFs = 10
	problem, err := nfvchain.GenerateWorkload(cfg)
	if err != nil {
		return err
	}

	sol, err := nfvchain.Optimize(problem, nfvchain.Options{Seed: 11, LinkDelay: 0.0002})
	if err != nil {
		return err
	}
	eval, err := nfvchain.Evaluate(sol)
	if err != nil {
		return err
	}

	fmt.Println("running discrete-event simulation (300s, 30s warmup)…")
	res, err := nfvchain.Simulate(sol, nfvchain.SimulationConfig{
		Horizon: 300, Warmup: 30, Seed: 11,
	})
	if err != nil {
		return err
	}
	fmt.Printf("delivered %d packets, %d retransmissions (loss feedback)\n\n",
		res.Delivered, res.Retransmissions)

	// Per-request: analytic Eq. 16 vs measured mean sojourn.
	ids := make([]nfvchain.RequestID, 0, len(eval.PerRequestLatency))
	for id := range eval.PerRequestLatency {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	fmt.Printf("%-10s %12s %12s %8s\n", "request", "analytic(s)", "simulated(s)", "error")
	var worst float64
	shown := 0
	for _, id := range ids {
		analytic := eval.PerRequestLatency[id]
		summary, ok := res.PerRequest[id]
		if !ok || summary.N() == 0 {
			continue
		}
		sim := summary.Mean()
		errPct := math.Abs(sim-analytic) / analytic * 100
		if errPct > worst {
			worst = errPct
		}
		if shown < 10 {
			fmt.Printf("%-10s %12.5f %12.5f %7.1f%%\n", id, analytic, sim, errPct)
			shown++
		}
	}
	fmt.Printf("… (%d requests total), worst per-request error %.1f%%\n\n", len(ids), worst)

	// Trace-driven replay: identical arrivals, reproducible end to end.
	trace, err := nfvchain.GenerateTrace(problem, 60, 99)
	if err != nil {
		return err
	}
	replay1, err := nfvchain.Simulate(sol, nfvchain.SimulationConfig{
		Horizon: 60, Warmup: 5, Arrivals: trace.Cursor(), Seed: 99,
	})
	if err != nil {
		return err
	}
	replay2, err := nfvchain.Simulate(sol, nfvchain.SimulationConfig{
		Horizon: 60, Warmup: 5, Arrivals: trace.Cursor(), Seed: 99,
	})
	if err != nil {
		return err
	}
	fmt.Printf("trace replay: %d arrivals → %d delivered (replayed twice: %v)\n",
		trace.Len(), replay1.Delivered, replay1.Delivered == replay2.Delivered)
	return nil
}
