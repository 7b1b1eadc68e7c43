package portfolio

import (
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
)

// scanDecode is the reference PSO decode: every fit check scans all VNFs
// through compiled.fits. The member-list decoder must match it exactly.
func scanDecode(c *compiled, x []float64, out []int) bool {
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

// randomScores fills x with uniform scores, and on every fourth call adds
// 1 at the seed placement's cells, as the swarm's first particle does.
func randomScores(x []float64, r *rng.Stream, i int, seed *candidate, nN int) {
	for d := range x {
		x[d] = r.Float64()
	}
	if i%4 == 0 {
		for f, n := range seed.nodeOf {
			x[f*nN+n] += 1
		}
	}
}

func compiledFixture(t *testing.T, fx evaluatorFixture) (*compiled, *candidate) {
	t.Helper()
	c, err := compile(fx.p, DefaultObjective())
	if err != nil {
		t.Fatal(err)
	}
	seed, err := c.seedCandidate(3)
	if err != nil {
		t.Fatal(err)
	}
	return c, seed
}

// boundaryProblem places VNFs of demand 0.01, 0.03 and 0.26 on two
// nodes. Node n0 holds all three only if a fit check sums in the order
// compiled.fits does — the VNF being placed, then the node's VNFs by
// index: the decode places them demand-descending, and for the last one,
// f0, (0.01+0.03)+0.26 is 0.3, the capacity plus capEps, while summing in
// placement order, (0.01+0.26)+0.03, or the node's VNFs first,
// (0.03+0.26)+0.01, gives 0.30000000000000004. With extras set, the same
// boundary is on an extra dimension and the capacities are loose.
func boundaryProblem(tb testing.TB, extras bool) *model.Problem {
	tb.Helper()
	const target = 0.3
	tight := target - capEps
	for tight+capEps < target {
		tight = math.Nextafter(tight, 1)
	}
	for tight+capEps > target {
		tight = math.Nextafter(tight, 0)
	}
	d := []float64{0.01, 0.03, 0.26}
	if tight+capEps != target || (d[0]+d[1])+d[2] > target ||
		!((d[0]+d[2])+d[1] > target) || !((d[1]+d[2])+d[0] > target) {
		tb.Fatal("boundary fixture: the summation orders do not straddle the capacity")
	}
	p := &model.Problem{}
	for i, demand := range d {
		f := model.VNF{ID: model.VNFID(fmt.Sprintf("f%d", i)), Instances: 1, Demand: demand, ServiceRate: 10}
		if extras {
			f.Extras = []float64{demand}
		}
		p.VNFs = append(p.VNFs, f)
	}
	nodeCap := []float64{tight, 1}
	for n, capacity := range nodeCap {
		node := model.Node{ID: model.NodeID(fmt.Sprintf("n%d", n)), Capacity: capacity}
		if extras {
			node.Capacity, node.Extras = 1, []float64{capacity}
		}
		p.Nodes = append(p.Nodes, node)
	}
	for i := 0; i < 2; i++ {
		p.Requests = append(p.Requests, model.Request{
			ID:           model.RequestID(fmt.Sprintf("r%d", i)),
			Chain:        []model.VNFID{"f0", "f1", "f2"},
			Rate:         1,
			DeliveryProb: 1,
		})
	}
	if err := p.Validate(); err != nil {
		tb.Fatalf("boundaryProblem invalid: %v", err)
	}
	return p
}

// TestPSODecodeMatchesScan: one reused member-list decoder gives the same
// placement, or the same failure, as the full-scan reference on random
// score vectors, on every evaluator fixture — including the extras one,
// whose fit checks sum every extra dimension — and on two fixtures where
// a fit check's verdict depends on its summation order.
func TestPSODecodeMatchesScan(t *testing.T) {
	fixtures := append(evaluatorFixtures(t),
		evaluatorFixture{"boundary-demand", boundaryProblem(t, false)},
		evaluatorFixture{"boundary-extras", boundaryProblem(t, true)})
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			c, seed := compiledFixture(t, fx)
			nV, nN := len(c.vnfIDs), len(c.nodeIDs)
			dec := newDecoder(c)
			r := rng.Derive(5, "portfolio/decode")
			x := make([]float64, nV*nN)
			got, want := make([]int, nV), make([]int, nV)
			feasible := 0
			for i := 0; i < 2000; i++ {
				randomScores(x, r, i, seed, nN)
				ok, wantOK := dec.decode(x, got), scanDecode(c, x, want)
				if ok != wantOK {
					t.Fatalf("vector %d: decode feasible=%v, scan feasible=%v", i, ok, wantOK)
				}
				if !ok {
					continue
				}
				feasible++
				if !slices.Equal(got, want) {
					t.Fatalf("vector %d: decode %v, scan %v", i, got, want)
				}
			}
			if feasible == 0 {
				t.Fatal("no vector decoded to a feasible placement")
			}
		})
	}
}

// TestPSOMemoExact scores a swarm-like stream of score vectors, repeating
// earlier ones so that placements recur, and requires every value — memo
// hit or placement-only miss — to equal fullValue exactly, for the default
// memo capacity and for a memo of one entry.
func TestPSOMemoExact(t *testing.T) {
	for _, fx := range evaluatorFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			c, seed := compiledFixture(t, fx)
			nV, nN := len(c.vnfIDs), len(c.nodeIDs)
			for _, capacity := range []int{memoCapacity(16, 150), 1} {
				cand := c.cloneCandidate(seed)
				sc := newSwarmScorer(c, cand, capacity)
				r := rng.Derive(9, "portfolio/memo")
				var seen [][]float64
				calls := 0
				for i := 0; i < 600; i++ {
					x := make([]float64, nV*nN)
					if len(seen) > 0 && r.IntN(2) == 0 {
						copy(x, seen[r.IntN(len(seen))])
					} else {
						randomScores(x, r, i, seed, nN)
					}
					seen = append(seen, x)
					got, ok := sc.score(x)
					if !ok {
						continue
					}
					calls++
					if want := fullValue(c, cand); got != want {
						t.Fatalf("capacity %d, call %d: score %v (%#x) != full %v (%#x)",
							capacity, calls, got, math.Float64bits(got), want, math.Float64bits(want))
					}
				}
				if sc.memo.n > capacity {
					t.Fatalf("memo holds %d entries, capacity %d", sc.memo.n, capacity)
				}
				if capacity > 1 && sc.memo.n >= calls {
					t.Fatalf("%d scored placements, %d memo entries: no hit", calls, sc.memo.n)
				}
			}
		})
	}
}

// TestPSOMemoCapacityTrajectory: a PSO run whose memo holds one entry
// follows the same incumbent trajectory as one at the default capacity.
func TestPSOMemoCapacityTrajectory(t *testing.T) {
	spec := shortSpecs(t, "pso")[0]
	for _, fx := range evaluatorFixtures(t)[:2] {
		t.Run(fx.name, func(t *testing.T) {
			c, err := compile(fx.p, DefaultObjective())
			if err != nil {
				t.Fatal(err)
			}
			hash := func(memoCap int) uint64 {
				sv, err := spec.build(DefaultObjective(), 21)
				if err != nil {
					t.Fatal(err)
				}
				s := sv.(*pso)
				return runHash(t, func(report func(Incumbent)) (*Solution, error) {
					return s.run(context.Background(), c, report, memoCap)
				})
			}
			if def, one := hash(memoCapacity(spec.Particles, spec.Iters)), hash(1); def != one {
				t.Errorf("trajectory hash %#016x at memo capacity 1, %#016x at the default", one, def)
			}
		})
	}
}

// TestValuePlacementFirstCall: valuePlacement on a fresh evaluator, whose
// snapshot holds no assignment yet, and again after undoing back to that
// fresh state, scores the whole candidate.
func TestValuePlacementFirstCall(t *testing.T) {
	for _, fx := range evaluatorFixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			c, seed := compiledFixture(t, fx)
			ev := newEvaluator(c)
			want := fullValue(c, seed)
			if got := ev.valuePlacement(seed); got != want {
				t.Fatalf("first call: %v, full %v", got, want)
			}
			ev.undo()
			if got := ev.valuePlacement(seed); got != want {
				t.Fatalf("after undo to the fresh snapshot: %v, full %v", got, want)
			}
		})
	}
}
