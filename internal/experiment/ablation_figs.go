package experiment

import (
	"fmt"

	"nfvchain/internal/placement"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/stats"
)

// AblationPlacement isolates BFDSU's two design choices (DESIGN.md §4) by
// comparing, over the Fig. 5 workload sweep:
//
//   - BFDSU — used-first search + weighted randomized best fit (the paper);
//   - BFD — same best-fit core, derandomized and without used/spare lists;
//   - Random — feasibility-only placement (no fit preference at all).
//
// The Y axis is the average utilization of nodes in service (Objective 1).
// The sweep rides the same cross-point work queue as the main placement
// figures.
func AblationPlacement(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ablation-placement",
		Title:  "Placement ablation: weighted used-first best fit vs its components",
		XLabel: "requests",
		YLabel: "avg utilization of used nodes",
	}
	algs := func(seed uint64) []placement.Algorithm {
		return []placement.Algorithm{
			&placement.BFDSU{Seed: seed},
			placement.BFD{},
			&placement.Random{Seed: seed},
		}
	}
	if err := placementSweep(t, cfg, requestSweepPoints(15, 10, placementLoadFactor), algs, utilizationMetric); err != nil {
		return nil, err
	}
	for _, label := range []string{"BFDSU", "BFD", "Random"} {
		t.Note("%s mean utilization: %.2f%%", label, t.Mean(label)*100)
	}
	return t, nil
}

// AblationScheduling compares the three scheduling philosophies over the
// Fig. 11 sweep (5 instances, P = 0.98): differencing (RCKK), sorted greedy
// (LPT — CGA with the decreasing sort) and cyclic dealing (RoundRobin). The
// pairing-rule ablation itself lives in the scheduling package's unit tests:
// forward pairing collapses all mass onto one instance, which is precisely
// why Algorithm 2 combines in reverse order; it cannot survive a
// near-saturation comparison.
// The Y axis is the mean per-instance response time.
func AblationScheduling(cfg Config) (*Table, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "ablation-scheduling",
		Title:  "Scheduling ablation: differencing vs sorted greedy vs round robin",
		XLabel: "requests",
		YLabel: "mean W per instance (s)",
	}
	const m, p = 5, 0.98
	algs := []scheduling.Partitioner{scheduling.RCKK{}, scheduling.CGA{}, scheduling.RoundRobin{}}
	var tps []trialParams
	for _, n := range []int{15, 25, 50, 100, 200} {
		tps = append(tps, trialParams{n: n, m: m, p: p, rhoRaw: responseFigRho})
	}
	perPoint, err := schedulingSweep(cfg, tps, algs,
		func(cfg Config, tp trialParams, trial int) uint64 {
			return cfg.Seed + uint64(trial)*2654435761 + uint64(tp.n*41)
		})
	if err != nil {
		return nil, fmt.Errorf("ablation-scheduling: %w", err)
	}
	for pi, tp := range tps {
		sums := make(map[string]*stats.Summary)
		skipped := 0
		for _, results := range perPoint[pi] {
			allStable := true
			for i := range algs {
				allStable = allStable && results[i].stable
			}
			if !allStable {
				skipped++
				continue
			}
			for i, alg := range algs {
				if sums[alg.Name()] == nil {
					sums[alg.Name()] = &stats.Summary{}
				}
				sums[alg.Name()].Add(results[i].meanW)
			}
		}
		for _, alg := range algs {
			if s := sums[alg.Name()]; s != nil {
				t.AddPoint(alg.Name(), float64(tp.n), s.Mean())
			}
		}
		if skipped > 0 {
			t.Note("n=%d: %d unstable trials skipped", tp.n, skipped)
		}
	}
	return t, nil
}
