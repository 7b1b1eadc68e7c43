package portfolio

import (
	"context"
	"math"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
)

// annealer is the simulated-annealing solver: Metropolis acceptance over
// elementary (placement, assignment) moves — relocate a VNF instance
// bundle, reassign one request between instances, swap two requests —
// with a periodic large move that applies the repo's Improve local
// searches (see compiled.polish). Deterministic at a fixed seed.
type annealer struct {
	name        string
	seed        uint64
	iters       int
	t0          float64
	cooling     float64
	polishEvery int
	obj         Objective
}

// move undo record: enough to revert any elementary move in place. Every
// move touches VNF f alone, so the evaluator diffs only f (valueAt).
type saUndo struct {
	kind         int // 0 relocate, 1 reassign, 2 swap, -1 none
	f, i, j      int
	prevA, prevB int
}

func (a *annealer) Name() string { return a.name }

func (a *annealer) Solve(ctx context.Context, p *model.Problem, report func(Incumbent)) (*Solution, error) {
	return solveProblem(ctx, a, p, a.obj, report)
}

func (a *annealer) solve(ctx context.Context, c *compiled, report func(Incumbent)) (*Solution, error) {
	cand, err := c.seedCandidate(a.seed)
	if err != nil {
		return nil, err
	}
	ev := newEvaluator(c)
	t := newTracker(c, a.name, report)
	cur := ev.value(cand)
	t.offer(cand, cur, 0)

	r := rng.Derive(a.seed, "portfolio/"+a.name)
	scratch := c.cloneCandidate(cand)
	temp := a.t0
	budget := a.iters
	if budget <= 0 {
		budget = math.MaxInt
	}
	i := 0
	for ; i < budget; i++ {
		if i&63 == 63 && ctx.Err() != nil {
			break
		}
		if a.polishEvery > 0 && i > 0 && i%a.polishEvery == 0 {
			scratch.copyFrom(cand)
			if obj := c.polish(ev, scratch); obj < cur-improveEps {
				cand.copyFrom(scratch)
				cur = obj
				t.offer(cand, cur, i)
			} else {
				ev.undo()
			}
			continue
		}
		u := a.propose(c, cand, r)
		if u.kind < 0 {
			temp *= a.cooling
			continue
		}
		nxt := ev.valueAt(cand, u.f)
		if d := nxt - cur; d <= 0 || r.Float64() < math.Exp(-d/math.Max(temp, 1e-12)) {
			cur = nxt
			t.offer(cand, cur, i+1)
		} else {
			revert(cand, u)
			ev.undo()
		}
		temp *= a.cooling
	}
	return t.solution(i)
}

// propose mutates cand with one random elementary move and returns the
// undo record; kind -1 means the draw produced no applicable move (the rng
// state still advances deterministically).
func (a *annealer) propose(c *compiled, cand *candidate, r *rng.Stream) saUndo {
	none := saUndo{kind: -1}
	switch k := r.IntN(10); {
	case k < 4: // relocate a VNF bundle to another feasible node
		if len(c.vnfIDs) == 0 || len(c.nodeIDs) < 2 {
			return none
		}
		f := r.IntN(len(c.vnfIDs))
		n := r.IntN(len(c.nodeIDs))
		if n == cand.nodeOf[f] || !c.fits(cand, f, n) {
			return none
		}
		u := saUndo{kind: 0, f: f, prevA: cand.nodeOf[f]}
		cand.nodeOf[f] = n
		return u
	case k < 8: // reassign one request to another instance
		if len(c.movable) == 0 {
			return none
		}
		f := c.movable[r.IntN(len(c.movable))]
		i := r.IntN(len(c.items[f]))
		dst := r.IntN(c.inst[f])
		if dst == cand.assign[f][i] {
			return none
		}
		u := saUndo{kind: 1, f: f, i: i, prevA: cand.assign[f][i]}
		cand.assign[f][i] = dst
		return u
	default: // swap two requests across instances of one VNF
		if len(c.movable) == 0 {
			return none
		}
		f := c.movable[r.IntN(len(c.movable))]
		n := len(c.items[f])
		if n < 2 {
			return none
		}
		i, j := r.IntN(n), r.IntN(n)
		if i == j || cand.assign[f][i] == cand.assign[f][j] {
			return none
		}
		u := saUndo{kind: 2, f: f, i: i, j: j, prevA: cand.assign[f][i], prevB: cand.assign[f][j]}
		cand.assign[f][i], cand.assign[f][j] = cand.assign[f][j], cand.assign[f][i]
		return u
	}
}

func revert(cand *candidate, u saUndo) {
	switch u.kind {
	case 0:
		cand.nodeOf[u.f] = u.prevA
	case 1:
		cand.assign[u.f][u.i] = u.prevA
	case 2:
		cand.assign[u.f][u.i], cand.assign[u.f][u.j] = u.prevA, u.prevB
	}
}
