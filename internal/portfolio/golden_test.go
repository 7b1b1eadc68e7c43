package portfolio

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/workload"
)

// paperProblem generates a §V-A instance (15 VNFs, 200 requests, 10 nodes,
// chains of up to 6 VNFs) with VNF demand scaled to load × total capacity.
func paperProblem(tb testing.TB, seed uint64, load float64) *model.Problem {
	tb.Helper()
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	p, err := workload.Generate(cfg)
	if err != nil {
		tb.Fatalf("workload.Generate: %v", err)
	}
	scale := load * p.TotalCapacity() / p.TotalDemand()
	for i := range p.VNFs {
		p.VNFs[i].Demand *= scale
	}
	return p
}

// trajectoryHash is the FNV-64a digest of a solver's incumbent stream —
// each (Iteration, Float64bits(Objective)) pair in report order — followed
// by the final objective's bits. Equal hashes mean the solver visited the
// same incumbents with bit-identical objectives.
func trajectoryHash(tb testing.TB, spec Spec, p *model.Problem, seed uint64) uint64 {
	tb.Helper()
	solver, err := spec.Build(DefaultObjective(), seed)
	if err != nil {
		tb.Fatalf("Build(%s): %v", spec.Name, err)
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	sol, err := solver.Solve(context.Background(), p, func(inc Incumbent) {
		put(uint64(inc.Iteration))
		put(math.Float64bits(inc.Objective))
	})
	if err != nil {
		tb.Fatalf("Solve(%s): %v", spec.Name, err)
	}
	put(math.Float64bits(sol.Objective))
	return h.Sum64()
}

// TestSolverTrajectoryGolden pins every default-portfolio solver's
// incumbent trajectory, at its default budget, to recorded constants:
// any change to an objective value, however small, changes a search
// trajectory and fails here. Regenerate the constants only for a change
// that is meant to alter the search.
func TestSolverTrajectoryGolden(t *testing.T) {
	problems := []struct {
		name string
		p    *model.Problem
		want map[string]uint64
	}{
		{"8x40x6", testProblem(t, 8, 40, 6, 11), map[string]uint64{
			"greedy": 0x1ee35bb1eeb16dc9,
			"ffd":    0xb091d06dc7b47d54,
			"nah":    0x8d71f3a05d79257c,
			"sa":     0xc869fbf2e59b898b,
			"lns":    0x34b0bc8de29b465f,
			"pso":    0x0f3821345735701d,
		}},
		{"paper-15x200x10-load0.6", paperProblem(t, 5, 0.6), map[string]uint64{
			"greedy": 0x4463e0ba4ce22ad6,
			"ffd":    0xc9cff7231b657e90,
			"nah":    0x634534a91f46b8c8,
			"sa":     0x2b20a8e2dede1dca,
			"lns":    0x6414cc3104ccdc14,
			"pso":    0xb89d2af6ef5e71f2,
		}},
	}
	specs := shortSpecs(t, DefaultPortfolio()...)
	for _, pr := range problems {
		for _, spec := range specs {
			got := trajectoryHash(t, spec, pr.p, 21)
			want, ok := pr.want[spec.Name]
			if !ok || got != want {
				t.Errorf("%s/%s: trajectory hash %#016x, want %#016x", pr.name, spec.Name, got, want)
			}
		}
	}
}
