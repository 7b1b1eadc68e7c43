package portfolio

import (
	"context"
	"math"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
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
	return s.run(ctx, c, report, memoCapacity(s.particles, s.iters))
}

// maxMemo bounds a run's placement memo, in entries.
const maxMemo = 4096

// memoCapacity sizes the placement memo to the evaluations a run can make,
// particles·(iters+1), up to maxMemo; an unbounded run gets maxMemo.
func memoCapacity(particles, iters int) int {
	if iters <= 0 || iters >= maxMemo {
		return maxMemo
	}
	return min(particles*(iters+1), maxMemo)
}

// run is solve with a placement memo of memoCap entries.
func (s *pso) run(ctx context.Context, c *compiled, report func(Incumbent), memoCap int) (*Solution, error) {
	seedCand, err := c.seedCandidate(s.seed)
	if err != nil {
		return nil, err
	}
	t := newTracker(c, s.name, report)

	// Inner evaluator: one KK schedule shared by every particle — the
	// seed's RCKK partition, polished per VNF.
	cand := c.cloneCandidate(seedCand)
	sc := newSwarmScorer(c, cand, memoCap)
	for _, f := range c.movable {
		c.improveRow(sc.ev, f, cand.assign[f])
	}

	nV, nN := len(c.vnfIDs), len(c.nodeIDs)
	dims := nV * nN
	r := rng.Derive(s.seed, "portfolio/"+s.name)
	floats := make([]float64, (3*s.particles+1)*dims+s.particles)
	rows := make([][]float64, 3*s.particles)
	pos, vel, pbestPos := carve(&rows, s.particles), carve(&rows, s.particles), carve(&rows, s.particles)
	pbestObj := carve(&floats, s.particles)
	gbestPos := carve(&floats, dims)
	gbestNode := make([]int, nV)
	gbestObj := math.Inf(1)

	for i := 0; i < s.particles; i++ {
		pos[i], vel[i], pbestPos[i] = carve(&floats, dims), carve(&floats, dims), carve(&floats, dims)
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
		obj, ok := sc.score(pos[i])
		copy(pbestPos[i], pos[i])
		pbestObj[i] = obj
		if ok && obj < gbestObj {
			gbestObj = obj
			copy(gbestPos, pos[i])
			copy(gbestNode, cand.nodeOf)
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
			obj, ok := sc.score(x)
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
				t.offer(cand, gbestObj, iter+1)
			}
		}
	}
	return t.solution(iter)
}

// swarmScorer scores particle positions against one fixed assignment:
// decode the position into cand's placement, then answer from the memo or,
// on a miss, score the placement alone. Both shortcuts are exact. The
// assignment never changes during a run, and the evaluator's value is a
// pure function of the candidate, bit-identical to scoring it from
// scratch, so a placement scored once has that value for the whole run.
type swarmScorer struct {
	decoder
	ev   *evaluator
	cand *candidate // the run's assignment and the last decoded placement
	memo placementMemo
}

func newSwarmScorer(c *compiled, cand *candidate, memoCap int) swarmScorer {
	return swarmScorer{
		decoder: newDecoder(c),
		ev:      newEvaluator(c),
		cand:    cand,
		memo:    newPlacementMemo(len(c.vnfIDs), memoCap),
	}
}

// score decodes x into cand's placement and returns its objective; false
// when x decodes to no feasible placement, which leaves cand's placement
// partly written.
func (sc *swarmScorer) score(x []float64) (float64, bool) {
	nodeOf := sc.cand.nodeOf
	if !sc.decode(x, nodeOf) {
		return math.Inf(1), false
	}
	slot, e := sc.memo.find(nodeOf)
	if e >= 0 {
		return sc.memo.vals[e], true
	}
	v := sc.ev.valuePlacement(sc.cand)
	sc.memo.add(slot, nodeOf, v)
	return v, true
}

// decoder turns score vectors into feasible placements. members[n] lists
// the VNFs the decode in progress has put on node n, in index order.
type decoder struct {
	c       *compiled
	members [][]int
}

func newDecoder(c *compiled) decoder {
	nV, nN := len(c.vnfIDs), len(c.nodeIDs)
	buf := make([]int, nN*nV)
	members := make([][]int, nN)
	for n := range members {
		members[n] = carve(&buf, nV)[:0]
	}
	return decoder{c: c, members: members}
}

// decode turns a score vector into a feasible placement: VNFs in
// demand-descending order each take the feasible node with the highest
// score (ties to the lower index); false when some VNF no longer fits.
func (d *decoder) decode(x []float64, out []int) bool {
	c := d.c
	nN := len(c.nodeIDs)
	for n := range d.members {
		d.members[n] = d.members[n][:0]
	}
	for _, f := range c.demandOrder {
		best := -1
		var bestScore float64
		for n, score := range x[f*nN : (f+1)*nN] {
			if best >= 0 && score <= bestScore {
				continue
			}
			if !d.fits(f, n) {
				continue
			}
			best, bestScore = n, score
		}
		if best < 0 {
			return false
		}
		out[f] = best
		// Insert f into best's members, keeping index order.
		on := append(d.members[best], f)
		i := len(on) - 1
		for ; i > 0 && on[i-1] > f; i-- {
			on[i] = on[i-1]
		}
		on[i] = f
		d.members[best] = on
	}
	return true
}

// fits is compiled.fits for unplaced VNF f during a decode. It sums the
// same terms in the same order — f's own demand, then node n's VNFs by
// index — so every load, and every verdict at the capacity boundary, is
// bit-identical to the full scan; it only skips the VNFs on other nodes.
func (d *decoder) fits(f, n int) bool {
	c := d.c
	on := d.members[n]
	load := c.demand[f]
	for _, g := range on {
		load += c.demand[g]
	}
	if load > c.cap[n]+capEps {
		return false
	}
	for k := 0; k < c.dims; k++ {
		l := c.vnfExtras[f][k]
		for _, g := range on {
			l += c.vnfExtras[g][k]
		}
		if l > c.nodeExtras[n][k]+capEps {
			return false
		}
	}
	return true
}

// placementMemo maps placements to objective values for one PSO run. It
// holds at most a fixed number of entries, allocated up front, and stops
// inserting when full. Lookups compare whole placements, never hashes
// alone, in an open-addressing table at most half full.
type placementMemo struct {
	nV    int
	keys  []int32   // entry e's placement at keys[e*nV:(e+1)*nV]
	vals  []float64 // entry e's objective
	table []int32   // per slot: entry index + 1, or 0 when empty
	n     int       // entries stored
}

func newPlacementMemo(nV, capacity int) placementMemo {
	size := 1
	for size < 2*capacity {
		size <<= 1
	}
	i32 := make([]int32, capacity*nV+size)
	return placementMemo{
		nV:    nV,
		keys:  carve(&i32, capacity*nV),
		vals:  make([]float64, capacity),
		table: carve(&i32, size),
	}
}

// find returns the entry holding nodeOf, or −1 with the empty slot where
// add would put it.
func (m *placementMemo) find(nodeOf []int) (slot, entry int) {
	h := uint64(14695981039346656037)
	for _, n := range nodeOf {
		h = (h ^ uint64(n)) * 1099511628211
	}
	h ^= h >> 32
	mask := len(m.table) - 1
	for slot = int(h) & mask; ; slot = (slot + 1) & mask {
		e := int(m.table[slot]) - 1
		if e < 0 {
			return slot, -1
		}
		if m.equal(e, nodeOf) {
			return slot, e
		}
	}
}

func (m *placementMemo) equal(e int, nodeOf []int) bool {
	key := m.keys[e*m.nV : (e+1)*m.nV]
	for f, n := range nodeOf {
		if int(key[f]) != n {
			return false
		}
	}
	return true
}

// add stores nodeOf's value in the empty slot find returned for it, unless
// the memo is full.
func (m *placementMemo) add(slot int, nodeOf []int, v float64) {
	if m.n == len(m.vals) {
		return
	}
	key := m.keys[m.n*m.nV : (m.n+1)*m.nV]
	for f, n := range nodeOf {
		key[f] = int32(n)
	}
	m.vals[m.n] = v
	m.n++
	m.table[slot] = int32(m.n)
}

type infeasibleSwarmError struct{}

func (*infeasibleSwarmError) Error() string {
	return "portfolio: pso: no particle decoded to a feasible placement"
}
