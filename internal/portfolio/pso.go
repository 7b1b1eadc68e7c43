package portfolio

import (
	"context"
	"math"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
	"nfvchain/internal/scheduling"
)

// pso is the particle-swarm solver over placement vectors: each particle
// carries a score per (VNF, node) pair, decoded demand-descending into a
// feasible placement by picking the highest-scoring node that still fits.
// The inner evaluator is the KK scheduler — an RCKK partition polished by
// scheduling.ImproveInPlace, computed once per problem since the
// assignment does not depend on the placement. Deterministic at a fixed
// seed; one iteration is one full swarm sweep.
type pso struct {
	name      string
	seed      uint64
	iters     int
	particles int
	inertia   float64
	cognitive float64
	social    float64
	obj       Objective
}

func (s *pso) Name() string { return s.name }

const psoVMax = 0.5

func (s *pso) Solve(ctx context.Context, p *model.Problem, report func(Incumbent)) (*Solution, error) {
	return solveProblem(ctx, s, p, s.obj, report)
}

func (s *pso) solve(ctx context.Context, c *compiled, report func(Incumbent)) (*Solution, error) {
	seedCand, err := c.seedCandidate(s.seed)
	if err != nil {
		return nil, err
	}
	ev := newEvaluator(c)
	t := newTracker(c, s.name, report)

	// Inner evaluator: one KK schedule shared by every particle — the
	// seed's RCKK partition, polished per VNF.
	cand := c.cloneCandidate(seedCand)
	for _, f := range c.movable {
		scheduling.ImproveInPlace(c.items[f], cand.assign[f], c.inst[f], 0)
	}

	nV, nN := len(c.vnfIDs), len(c.nodeIDs)
	dims := nV * nN
	r := rng.Derive(s.seed, "portfolio/"+s.name)
	pos := make([][]float64, s.particles)
	vel := make([][]float64, s.particles)
	pbestPos := make([][]float64, s.particles)
	pbestObj := make([]float64, s.particles)
	gbestPos := make([]float64, dims)
	gbestNode := make([]int, nV)
	gbestObj := math.Inf(1)
	decoded := make([]int, nV)

	evalAt := func(x []float64) (float64, bool) {
		if !s.decode(c, x, decoded) {
			return math.Inf(1), false
		}
		copy(cand.nodeOf, decoded)
		return ev.value(cand), true
	}

	for i := 0; i < s.particles; i++ {
		pos[i] = make([]float64, dims)
		vel[i] = make([]float64, dims)
		for d := 0; d < dims; d++ {
			pos[i][d] = r.Float64()
			vel[i][d] = (r.Float64() - 0.5) * 0.2
		}
		if i == 0 {
			// Bias the first particle toward the greedy seed placement so
			// the swarm always starts from one feasible decode.
			for f, n := range seedCand.nodeOf {
				pos[0][f*nN+n] += 1.0
			}
		}
		obj, ok := evalAt(pos[i])
		pbestPos[i] = append([]float64(nil), pos[i]...)
		pbestObj[i] = obj
		if ok && obj < gbestObj {
			gbestObj = obj
			copy(gbestPos, pos[i])
			copy(gbestNode, decoded)
		}
	}
	if math.IsInf(gbestObj, 1) {
		return nil, &infeasibleSwarmError{}
	}
	copy(cand.nodeOf, gbestNode)
	t.offer(cand, gbestObj, 0)

	budget := s.iters
	if budget <= 0 {
		budget = math.MaxInt
	}
	iter := 0
	for ; iter < budget; iter++ {
		if ctx.Err() != nil {
			break
		}
		for i := 0; i < s.particles; i++ {
			x, v, pb := pos[i], vel[i], pbestPos[i]
			for d := 0; d < dims; d++ {
				nv := s.inertia*v[d] +
					s.cognitive*r.Float64()*(pb[d]-x[d]) +
					s.social*r.Float64()*(gbestPos[d]-x[d])
				if nv > psoVMax {
					nv = psoVMax
				} else if nv < -psoVMax {
					nv = -psoVMax
				}
				v[d] = nv
				x[d] += nv
			}
			obj, ok := evalAt(x)
			if !ok {
				continue
			}
			if obj < pbestObj[i] {
				pbestObj[i] = obj
				copy(pb, x)
			}
			if obj < gbestObj {
				gbestObj = obj
				copy(gbestPos, x)
				copy(gbestNode, decoded)
				copy(cand.nodeOf, gbestNode)
				t.offer(cand, gbestObj, iter+1)
			}
		}
	}
	copy(cand.nodeOf, gbestNode)
	return t.solution(iter)
}

// decode turns a score vector into a feasible placement: VNFs in
// demand-descending order each take the feasible node with the highest
// score (ties to the lower index); false when some VNF no longer fits.
func (s *pso) decode(c *compiled, x []float64, out []int) bool {
	nN := len(c.nodeIDs)
	for f := range out {
		out[f] = -1
	}
	scratch := candidate{nodeOf: out}
	for _, f := range c.demandOrder {
		best := -1
		var bestScore float64
		for n := 0; n < nN; n++ {
			score := x[f*nN+n]
			if best >= 0 && score <= bestScore {
				continue
			}
			if !c.fits(&scratch, f, n) {
				continue
			}
			best, bestScore = n, score
		}
		if best < 0 {
			return false
		}
		out[f] = best
	}
	return true
}

type infeasibleSwarmError struct{}

func (*infeasibleSwarmError) Error() string {
	return "portfolio: pso: no particle decoded to a feasible placement"
}
