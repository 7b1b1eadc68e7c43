package portfolio

import (
	"context"
	"fmt"

	"nfvchain/internal/model"
	"nfvchain/internal/placement"
	"nfvchain/internal/scheduling"
)

// baseline wraps an existing two-phase pipeline (placement.Algorithm +
// scheduling.Partitioner) as a portfolio Solver. It reports one incumbent
// for the raw pipeline result and, when polish is set, a second one after
// the Improve local searches. A nil scheduler means RCKK, whose schedule
// the compiled problem computes once for every solver.
type baseline struct {
	name      string
	placer    placement.Algorithm
	scheduler scheduling.Partitioner
	polish    bool
	obj       Objective
}

func (b *baseline) Name() string { return b.name }

func (b *baseline) Solve(ctx context.Context, p *model.Problem, report func(Incumbent)) (*Solution, error) {
	return solveProblem(ctx, b, p, b.obj, report)
}

func (b *baseline) solve(ctx context.Context, c *compiled, report func(Incumbent)) (*Solution, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ev := newEvaluator(c)
	t := newTracker(c, b.name, report)

	res, err := b.placer.PlaceValid(c.p)
	if err != nil {
		return nil, fmt.Errorf("portfolio: %s: %w", b.name, err)
	}
	cand := c.newCandidate()
	if err := c.fromPlacement(res.Placement, cand.nodeOf); err != nil {
		return nil, err
	}
	if b.scheduler == nil {
		rows, err := c.rckkSchedule()
		if err != nil {
			return nil, fmt.Errorf("portfolio: %s: %w", b.name, err)
		}
		copyRows(cand.assign, rows)
	} else {
		s, err := scheduling.ScheduleAll(c.p, b.scheduler)
		if err != nil {
			return nil, fmt.Errorf("portfolio: %s: %w", b.name, err)
		}
		if err := c.fromSchedule(s, cand.assign); err != nil {
			return nil, err
		}
	}
	t.offer(cand, ev.value(cand), 1)

	iters := 1
	if b.polish && ctx.Err() == nil {
		iters = 2
		t.offer(cand, c.polish(ev, cand), 2)
	}
	return t.solution(iters)
}
