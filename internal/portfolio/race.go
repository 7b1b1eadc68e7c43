package portfolio

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"nfvchain/internal/model"
)

// RaceConfig parameterizes a portfolio race.
type RaceConfig struct {
	// Specs are the K solvers to race (at least one).
	Specs []Spec
	// Workers bounds solver-level parallelism; 0 means GOMAXPROCS. The
	// race result is invariant to the worker count.
	Workers int
	// Seed derives per-solver seeds for specs that did not pin one.
	Seed uint64
	// Objective overrides the shared objective; zero value means
	// DefaultObjective.
	Objective Objective
	// OnIncumbent, when set, receives the globally-improving incumbents in
	// publication order (first-improvement: an incumbent is published only
	// when it beats everything published before it, across all solvers).
	// It is called under the race's internal lock and must return quickly.
	OnIncumbent func(Incumbent)
}

// SolverOutcome is one racer's final standing.
type SolverOutcome struct {
	Solver     string  `json:"solver"`
	Objective  float64 `json:"objective"`
	Iterations int     `json:"iterations"`
	Incumbents int     `json:"incumbents"`
	Err        string  `json:"err,omitempty"`
}

// RaceResult is the deterministic aggregate of a race.
type RaceResult struct {
	// Best is the winning solution: the minimum final objective across
	// solvers, ties broken by spec order — a deterministic choice that
	// does not depend on publication timing or worker count.
	Best *Solution
	// Outcomes holds one entry per spec, in spec order.
	Outcomes []SolverOutcome
	// Published counts first-improvement publications to OnIncumbent. It
	// depends on goroutine interleaving and is NOT deterministic — it
	// exists for observability, not for comparisons.
	Published int
	// DeadlineExpired reports whether the race ended because ctx's
	// deadline passed.
	DeadlineExpired bool
}

// Race compiles the problem once and runs every spec's solver over it on a
// bounded worker pool, sharing a best-so-far incumbent stream, and returns
// the deterministic winner. Solvers cut short by ctx contribute their
// best-so-far; the race fails only when every solver fails.
func Race(ctx context.Context, p *model.Problem, cfg RaceConfig) (*RaceResult, error) {
	if len(cfg.Specs) == 0 {
		return nil, errors.New("portfolio: race needs at least one solver spec")
	}
	if len(cfg.Specs) > MaxPortfolioSize {
		return nil, fmt.Errorf("portfolio: %d specs exceeds the maximum of %d", len(cfg.Specs), MaxPortfolioSize)
	}
	obj := cfg.Objective.withDefaults()
	solvers := make([]racer, len(cfg.Specs))
	for i, s := range cfg.Specs {
		if s.Iters == 0 {
			if _, ok := ctx.Deadline(); !ok {
				return nil, fmt.Errorf("portfolio: spec %q has no iteration budget and the race has no deadline", s.String())
			}
		}
		sv, err := s.build(obj, deriveSeed(cfg.Seed, i))
		if err != nil {
			return nil, err
		}
		solvers[i] = sv
	}

	// One compiled problem serves every racer: read-only, with the BFD and
	// RCKK seeds computed once. A problem that does not compile fails every
	// solver alike.
	c, err := compile(p, obj)
	if err != nil {
		return nil, fmt.Errorf("portfolio: every solver failed; first error: %w", err)
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(solvers) {
		workers = len(solvers)
	}

	shared := &sharedIncumbent{on: cfg.OnIncumbent}
	results := make([]*Solution, len(solvers))
	errs := make([]error, len(solvers))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(solvers) {
					return
				}
				results[i], errs[i] = solvers[i].solve(ctx, c, shared.publish)
			}
		}()
	}
	wg.Wait()

	res := &RaceResult{
		Published:       shared.count,
		DeadlineExpired: errors.Is(ctx.Err(), context.DeadlineExceeded),
	}
	bestIdx := -1
	for i, sol := range results {
		out := SolverOutcome{Solver: solvers[i].Name()}
		if errs[i] != nil {
			out.Err = errs[i].Error()
		}
		if sol != nil {
			out.Objective = sol.Objective
			out.Iterations = sol.Iterations
			out.Incumbents = sol.Incumbents
			if bestIdx < 0 || sol.Objective < results[bestIdx].Objective {
				bestIdx = i
			}
		}
		res.Outcomes = append(res.Outcomes, out)
	}
	if bestIdx < 0 {
		return nil, fmt.Errorf("portfolio: every solver failed; first error: %w", firstError(errs))
	}
	res.Best = results[bestIdx]
	return res, nil
}

// deriveSeed assigns independent per-solver seeds from the race seed.
func deriveSeed(seed uint64, i int) uint64 {
	return seed + uint64(i)*0x9e3779b97f4a7c15
}

// sharedIncumbent is the race-wide first-improvement filter.
type sharedIncumbent struct {
	mu    sync.Mutex
	has   bool
	best  float64
	count int
	on    func(Incumbent)
}

func (s *sharedIncumbent) publish(inc Incumbent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.has && inc.Objective >= s.best-improveEps {
		return
	}
	s.has = true
	s.best = inc.Objective
	s.count++
	if s.on != nil {
		s.on(inc)
	}
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return errors.New("unknown failure")
}
