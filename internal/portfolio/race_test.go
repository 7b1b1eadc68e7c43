package portfolio

import (
	"context"
	"math"
	"runtime"
	"testing"
	"time"

	"nfvchain/internal/model"
)

func raceSpecs(tb testing.TB) []Spec {
	return shortSpecs(tb,
		"greedy", "ffd", "nah",
		"sa:iters=1500;polish=500", "lns:iters=80", "pso:iters=25;particles=8")
}

func TestRaceWinsAgainstEveryBaseline(t *testing.T) {
	p := testProblem(t, 8, 40, 6, 19)
	res, err := Race(context.Background(), p, RaceConfig{Specs: raceSpecs(t), Seed: 1})
	if err != nil {
		t.Fatalf("Race: %v", err)
	}
	if res.Best == nil {
		t.Fatal("no winner")
	}
	for _, out := range res.Outcomes {
		if out.Err != "" {
			t.Errorf("solver %s failed: %s", out.Solver, out.Err)
			continue
		}
		if res.Best.Objective > out.Objective+1e-9 {
			t.Errorf("winner %v worse than %s at %v", res.Best.Objective, out.Solver, out.Objective)
		}
	}
	if err := res.Best.Placement.Validate(p); err != nil {
		t.Errorf("winning placement invalid: %v", err)
	}
	if err := res.Best.Schedule.Validate(p); err != nil {
		t.Errorf("winning schedule invalid: %v", err)
	}
}

// TestRaceWorkerCountInvariance: the race result must be identical whether
// the solvers run one at a time or fully parallel — GOMAXPROCS(1) ≡
// GOMAXPROCS(8). Published counts are timing-dependent and excluded.
func TestRaceWorkerCountInvariance(t *testing.T) {
	p := testProblem(t, 8, 40, 6, 23)
	run := func(procs, workers int) *RaceResult {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := Race(context.Background(), p, RaceConfig{
			Specs:   raceSpecs(t),
			Workers: workers,
			Seed:    5,
		})
		if err != nil {
			t.Fatalf("Race(workers=%d): %v", workers, err)
		}
		return res
	}
	serial := run(1, 1)
	parallel := run(8, 8)
	if serial.Best.Solver != parallel.Best.Solver {
		t.Errorf("winner differs: %s vs %s", serial.Best.Solver, parallel.Best.Solver)
	}
	if serial.Best.Objective != parallel.Best.Objective {
		t.Errorf("winning objective differs: %v vs %v", serial.Best.Objective, parallel.Best.Objective)
	}
	if len(serial.Outcomes) != len(parallel.Outcomes) {
		t.Fatalf("outcome counts differ: %d vs %d", len(serial.Outcomes), len(parallel.Outcomes))
	}
	for i := range serial.Outcomes {
		a, b := serial.Outcomes[i], parallel.Outcomes[i]
		if a != b {
			t.Errorf("outcome %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestRaceMatchesSoloSolvers: every racer's outcome must equal the same
// solver run alone through Solve, which compiles the problem itself, at
// one worker and at eight. The race compiles once and shares the compiled
// problem and its once-computed BFD and RCKK seeds among all racers, so
// this proves the sharing changes no objective bit, iteration count or
// incumbent count.
func TestRaceMatchesSoloSolvers(t *testing.T) {
	problems := []struct {
		name string
		p    *model.Problem
	}{
		{"8x40x6", testProblem(t, 8, 40, 6, 41)},
		{"paper-15x200x10-load0.6", paperProblem(t, 3, 0.6)},
	}
	specs := raceSpecs(t)
	const seed = 13
	for _, pr := range problems {
		solo := make([]SolverOutcome, len(specs))
		for i, spec := range specs {
			solver, err := spec.Build(DefaultObjective(), deriveSeed(seed, i))
			if err != nil {
				t.Fatalf("Build(%s): %v", spec.Name, err)
			}
			sol, err := solver.Solve(context.Background(), pr.p, nil)
			if err != nil {
				t.Fatalf("%s: Solve(%s): %v", pr.name, spec.Name, err)
			}
			solo[i] = SolverOutcome{Solver: spec.Name, Objective: sol.Objective,
				Iterations: sol.Iterations, Incumbents: sol.Incumbents}
		}
		for _, workers := range []int{1, 8} {
			res, err := Race(context.Background(), pr.p, RaceConfig{Specs: specs, Workers: workers, Seed: seed})
			if err != nil {
				t.Fatalf("%s: Race(workers=%d): %v", pr.name, workers, err)
			}
			for i, got := range res.Outcomes {
				want := solo[i]
				if got.Err != "" || got.Solver != want.Solver ||
					math.Float64bits(got.Objective) != math.Float64bits(want.Objective) ||
					got.Iterations != want.Iterations || got.Incumbents != want.Incumbents {
					t.Errorf("%s workers=%d: race outcome %+v, solo %+v", pr.name, workers, got, want)
				}
			}
		}
	}
}

func TestRaceFirstImprovementPublication(t *testing.T) {
	p := testProblem(t, 8, 40, 6, 29)
	var objectives []float64
	res, err := Race(context.Background(), p, RaceConfig{
		Specs: raceSpecs(t),
		Seed:  9,
		OnIncumbent: func(inc Incumbent) {
			objectives = append(objectives, inc.Objective)
		},
	})
	if err != nil {
		t.Fatalf("Race: %v", err)
	}
	if len(objectives) == 0 {
		t.Fatal("no incumbents published")
	}
	for i := 1; i < len(objectives); i++ {
		if objectives[i] >= objectives[i-1] {
			t.Errorf("publication %d (%v) not below %d (%v)", i, objectives[i], i-1, objectives[i-1])
		}
	}
	if res.Published != len(objectives) {
		t.Errorf("Published = %d, callback saw %d", res.Published, len(objectives))
	}
	if last := objectives[len(objectives)-1]; last != res.Best.Objective {
		t.Errorf("last publication %v != winner %v", last, res.Best.Objective)
	}
}

func TestRaceDeadlineReturnsBestSoFar(t *testing.T) {
	p := testProblem(t, 8, 40, 6, 31)
	specs := shortSpecs(t, "greedy", "sa:iters=0;cooling=0.99999")
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	res, err := Race(ctx, p, RaceConfig{Specs: specs, Seed: 2})
	if err != nil {
		t.Fatalf("Race: %v", err)
	}
	if !res.DeadlineExpired {
		t.Error("DeadlineExpired not set")
	}
	if res.Best == nil || res.Best.Placement == nil {
		t.Fatal("no best-so-far result at deadline")
	}
}

func TestRaceRejectsBadConfigs(t *testing.T) {
	p := testProblem(t, 4, 10, 4, 37)
	if _, err := Race(context.Background(), p, RaceConfig{}); err == nil {
		t.Error("K=0 race accepted")
	}
	// Unbounded spec without a deadline must be rejected up front.
	specs := shortSpecs(t, "sa:iters=0")
	if _, err := Race(context.Background(), p, RaceConfig{Specs: specs}); err == nil {
		t.Error("unbounded spec without deadline accepted")
	}
}
