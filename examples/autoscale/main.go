// Autoscale: drive the online pool manager through a diurnal load pattern.
// Every flow follows the diurnal client class over a compressed "day";
// saturated VNFs scale out by booting replicas (paying the setup cost the
// paper highlights — ~5s for a middlebox VM vs ~30ms for a ClickOS-style
// platform), and cold replicas are drained and retired as load recedes.
package main

import (
	"fmt"
	"os"

	nfvchain "nfvchain"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "autoscale:", err)
		os.Exit(1)
	}
}

func run() error {
	const (
		day     = 60.0  // compressed diurnal period (simulated seconds)
		horizon = 120.0 // two "days"
		tick    = 1.0   // controller tick interval
		seed    = 1
	)
	problem := &nfvchain.Problem{
		Nodes: []nfvchain.Node{
			{ID: "n1", Capacity: 400},
			{ID: "n2", Capacity: 400},
			{ID: "n3", Capacity: 400},
		},
		VNFs: []nfvchain.VNF{
			{ID: "Firewall", Instances: 2, Demand: 40, ServiceRate: 300},
			{ID: "NAT", Instances: 2, Demand: 30, ServiceRate: 400},
		},
	}
	for i := 1; i <= 12; i++ {
		problem.Requests = append(problem.Requests, nfvchain.Request{
			ID:           nfvchain.RequestID(fmt.Sprintf("flow%02d", i)),
			Chain:        []nfvchain.VNFID{"Firewall", "NAT"},
			Rate:         30,
			DeliveryProb: 0.98,
		})
	}
	sol, err := nfvchain.Optimize(problem, nfvchain.Options{Seed: seed})
	if err != nil {
		return err
	}

	// Only the diurnal cohort of the default client mix, on the compressed
	// day: load swings ±80% around the mean once per period.
	var diurnal []nfvchain.ClientClass
	for _, c := range nfvchain.DefaultClientClasses() {
		if c.Name == "diurnal" {
			c.Period = day
			diurnal = append(diurnal, c)
		}
	}

	for _, platform := range []struct {
		name  string
		setup float64
	}{
		{"middlebox VM (5s boot)", nfvchain.SetupCostVM},
		{"ClickOS (30ms boot)", nfvchain.SetupCostClickOS},
	} {
		ctrl, err := nfvchain.NewController(nfvchain.ControlConfig{
			Problem:   sol.Problem,
			Placement: sol.Placement,
			Schedule:  sol.Schedule,
			Policy:    nfvchain.ControlAutoscale,
			SetupCost: platform.setup,
			Seed:      seed,
		})
		if err != nil {
			return err
		}
		// Sources are stateful cursors: build a fresh, identical set per run.
		cw, err := nfvchain.BuildClassSources(sol.Problem, diurnal, seed)
		if err != nil {
			return err
		}
		res, err := nfvchain.Simulate(sol, nfvchain.SimulationConfig{
			Horizon:         horizon,
			Seed:            seed,
			Arrivals:        nfvchain.NewMergedStream(cw.Sources),
			Controller:      ctrl,
			ControlInterval: tick,
		})
		if err != nil {
			return err
		}

		st := ctrl.StatsAt(horizon)
		fmt.Printf("%s:\n", platform.name)
		fmt.Printf("  scale-ups %d, scale-downs %d, setup time paid %.2fs\n",
			st.ScaleUps, st.ScaleDowns, st.SetupSecs)
		fmt.Printf("  delivered %d of %d packets, mean latency %.3fs\n",
			res.Delivered, res.Generated, res.Latency.Mean())
		fmt.Printf("  node-seconds %.0f over %.0fs\n\n", st.NodeSeconds, horizon)
	}
	return nil
}
