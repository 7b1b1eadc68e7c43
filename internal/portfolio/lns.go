package portfolio

import (
	"context"
	"math"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
)

// lns is the large-neighborhood-search solver: each iteration destroys
// part of the incumbent (close a node via placement node evacuation,
// unplace a random VNF subset, or scramble one VNF's assignment) and
// repairs it (best-fit re-placement, scheduling.ImproveInPlace), accepting
// repairs under a threshold-acceptance rule. The destroy/repair moves
// reuse the repo's existing local searches rather than duplicating them.
// Deterministic at a fixed seed.
type lns struct {
	name    string
	seed    uint64
	iters   int
	destroy float64 // fraction of VNFs unplaced by the shake move
	obj     Objective
}

func (l *lns) Name() string { return l.name }

func (l *lns) Solve(ctx context.Context, p *model.Problem, report func(Incumbent)) (*Solution, error) {
	return solveProblem(ctx, l, p, l.obj, report)
}

func (l *lns) solve(ctx context.Context, c *compiled, report func(Incumbent)) (*Solution, error) {
	cand, err := c.seedCandidate(l.seed)
	if err != nil {
		return nil, err
	}
	ev := newEvaluator(c)
	t := newTracker(c, l.name, report)
	cur := ev.value(cand)
	scratch := c.cloneCandidate(cand)
	if polished := c.polish(ev, scratch); polished < cur {
		cand.copyFrom(scratch)
		cur = polished
	} else {
		ev.undo()
	}
	t.offer(cand, cur, 0)

	r := rng.Derive(l.seed, "portfolio/"+l.name)
	trial := c.cloneCandidate(cand)
	buf := newShakeBuf(c)
	budget := l.iters
	if budget <= 0 {
		budget = math.MaxInt
	}
	i := 0
	for ; i < budget; i++ {
		if i&15 == 15 && ctx.Err() != nil {
			break
		}
		trial.copyFrom(cand)
		switch r.IntN(3) {
		case 0:
			l.closeNode(ev, trial, r)
		case 1:
			if !l.shake(c, trial, r, buf) {
				continue
			}
		case 2:
			l.scramble(ev, trial, r)
		}
		obj := ev.value(trial)
		if obj < cur+math.Abs(cur)*0.02 { // threshold acceptance: allow ≤2% uphill drift
			cand.copyFrom(trial)
			cur = obj
			if obj < t.best-improveEps {
				// Polish strict improvements before publishing — into a
				// scratch copy, kept only when it helps: polish optimizes
				// makespan and node count, which can disagree with the race
				// objective, and cand must always match cur.
				scratch.copyFrom(cand)
				if polished := c.polish(ev, scratch); polished < obj {
					cand.copyFrom(scratch)
					cur = polished
				} else {
					ev.undo()
				}
				t.offer(cand, cur, i+1)
			}
		} else {
			ev.undo()
		}
	}
	return t.solution(i)
}

// closeNode evacuates one random used node, drawn from the nodes in
// service in ID order, through the placement package's Evacuate move; a
// failed plan leaves trial unchanged.
func (l *lns) closeNode(ev *evaluator, trial *candidate, r *rng.Stream) {
	evac := ev.evacuator()
	used := evac.UsedNodes(trial.nodeOf)
	if len(used) < 2 {
		return
	}
	evac.Evacuate(trial.nodeOf, used[r.IntN(len(used))])
}

// shakeBuf is shake's scratch, reused across one Solve's iterations.
type shakeBuf struct {
	perm []int     // per VNF
	load []float64 // per node
}

func newShakeBuf(c *compiled) *shakeBuf {
	return &shakeBuf{perm: make([]int, len(c.vnfIDs)), load: make([]float64, len(c.nodeIDs))}
}

// shake unplaces a random destroy-fraction of VNFs and re-places them
// best-fit in demand order with a randomized tie among feasible nodes;
// false when the repair dead-ends (trial must be discarded).
func (l *lns) shake(c *compiled, trial *candidate, r *rng.Stream, buf *shakeBuf) bool {
	v := len(c.vnfIDs)
	if v == 0 || len(c.nodeIDs) < 2 {
		return false
	}
	k := int(l.destroy * float64(v))
	if k < 1 {
		k = 1
	}
	// r.Perm(v) into the reused buffer: the identity shuffled by the same
	// draws, so the permutation is the one Perm would return.
	perm := buf.perm
	for i := range perm {
		perm[i] = i
	}
	r.Shuffle(v, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	removed := perm[:k]
	for _, f := range removed {
		trial.nodeOf[f] = -1
	}
	// Repair in demand-descending order, best-fit: a coin flip between the
	// two smallest feasible residuals keeps the repair greedy but
	// diversified.
	load := buf.load
	clear(load)
	for g, ng := range trial.nodeOf {
		if ng >= 0 {
			load[ng] += c.demand[g]
		}
	}
	for _, f := range c.demandOrder {
		if trial.nodeOf[f] != -1 {
			continue
		}
		best, second := -1, -1
		for n := range c.nodeIDs {
			if !c.fits(trial, f, n) {
				continue
			}
			res := c.cap[n] - load[n]
			switch {
			case best < 0 || res < c.cap[best]-load[best]:
				best, second = n, best
			case second < 0 || res < c.cap[second]-load[second]:
				second = n
			}
		}
		if best < 0 {
			return false
		}
		pick := best
		if second >= 0 && r.IntN(2) == 1 {
			pick = second
		}
		trial.nodeOf[f] = pick
		load[pick] += c.demand[f]
	}
	return true
}

// scramble reassigns a random quarter of one VNF's requests and rebalances
// with the scheduling package's in-place local search.
func (l *lns) scramble(ev *evaluator, trial *candidate, r *rng.Stream) {
	c := ev.c
	if len(c.movable) == 0 {
		return
	}
	f := c.movable[r.IntN(len(c.movable))]
	n := len(c.items[f])
	moves := n / 4
	if moves < 1 {
		moves = 1
	}
	for t := 0; t < moves; t++ {
		trial.assign[f][r.IntN(n)] = r.IntN(c.inst[f])
	}
	c.improveRow(ev, f, trial.assign[f])
}
