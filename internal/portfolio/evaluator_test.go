package portfolio

import (
	"math"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
)

// fullValue is the reference Eq. 11/16 objective: every Λ/W row and every
// request chain rescored from scratch. It is the non-incremental evaluator
// the incremental one must match bit for bit, and it finds each request's
// item by ID rather than through the evaluator's slots.
func fullValue(c *compiled, cand *candidate) float64 {
	stamp := make([]int, len(c.nodeIDs))
	epoch := 1
	nodes := 0
	for _, n := range cand.nodeOf {
		if stamp[n] != epoch {
			stamp[n] = epoch
			nodes++
		}
	}
	w := make([][]float64, len(c.vnfIDs))
	for f := range c.vnfIDs {
		eff := make([]float64, c.inst[f])
		raw := make([]float64, c.inst[f])
		w[f] = make([]float64, c.inst[f])
		items := c.items[f]
		asg := cand.assign[f]
		for i := range items {
			k := asg[i]
			eff[k] += items[i].Weight
			raw[k] += c.rawW[f][i]
		}
		mu := c.mu[f]
		for k := range w[f] {
			switch {
			case raw[k] <= 0:
				w[f][k] = 0
			case eff[k] >= mu:
				w[f][k] = c.obj.UnstablePenalty * (1 + eff[k]/mu)
			default:
				rho := eff[k] / mu
				w[f][k] = rho / ((1 - rho) * raw[k])
			}
		}
	}
	item := make([]map[model.RequestID]int, len(c.vnfIDs))
	for f, items := range c.items {
		item[f] = make(map[model.RequestID]int, len(items))
		for i, it := range items {
			item[f][it.ID] = i
		}
	}
	var total float64
	for _, req := range c.p.Requests {
		var lat float64
		epoch++
		span := 0
		for _, fid := range req.Chain {
			f, _ := c.ix.VNF(fid)
			lat += w[f][cand.assign[f][item[f][req.ID]]]
			n := cand.nodeOf[f]
			if stamp[n] != epoch {
				stamp[n] = epoch
				span++
			}
		}
		if span > 1 {
			lat += float64(span-1) * c.obj.LinkDelay
		}
		total += lat
	}
	mean := 0.0
	if n := len(c.p.Requests); n > 0 {
		mean = total / float64(n)
	}
	return c.obj.NodeWeight*float64(nodes) + c.obj.LatencyWeight*mean
}

// extrasProblem adds two extra resource dimensions to a generated problem,
// sized so the seed placement still fits, so fits and the LNS repairs
// exercise the multi-resource checks.
func extrasProblem(tb testing.TB) *model.Problem {
	tb.Helper()
	p := testProblem(tb, 7, 35, 6, 29)
	r := rng.Derive(29, "portfolio/extras")
	totals := make([]float64, 2)
	for i := range p.VNFs {
		p.VNFs[i].Extras = []float64{r.Uniform(0.5, 2), r.Uniform(0.1, 1)}
		for d, x := range p.VNFs[i].Extras {
			totals[d] += x * float64(p.VNFs[i].Instances)
		}
	}
	for i := range p.Nodes {
		p.Nodes[i].Extras = []float64{totals[0] * 0.5, totals[1] * 0.5}
	}
	if err := p.Validate(); err != nil {
		tb.Fatalf("extrasProblem invalid: %v", err)
	}
	return p
}

// TestEvaluatorIncrementalMatchesFull drives one evaluator through every
// kind of candidate change the solvers make — SA moves scored move-aware
// (valueAt with the touched VNF) with revert and undo, LNS destroy/repair
// trials, PSO decodes, polish, and alternation between two candidates and
// between move-aware and full-diff calls — and requires each incremental
// value to equal fullValue exactly (== on float64, not a tolerance).
func TestEvaluatorIncrementalMatchesFull(t *testing.T) {
	problems := []struct {
		name string
		p    *model.Problem
	}{
		{"8x40x6", testProblem(t, 8, 40, 6, 11)},
		{"paper-15x200x10-load0.6", paperProblem(t, 5, 0.6)},
		{"extras-7x35x6", extrasProblem(t)},
	}
	for _, pr := range problems {
		t.Run(pr.name, func(t *testing.T) {
			c, err := compile(pr.p, DefaultObjective())
			if err != nil {
				t.Fatal(err)
			}
			seed, err := c.seedCandidate(3)
			if err != nil {
				t.Fatal(err)
			}
			ev := newEvaluator(c)
			calls := 0
			verify := func(what string, cand *candidate, got float64) float64 {
				t.Helper()
				calls++
				if want := fullValue(c, cand); got != want {
					t.Fatalf("call %d (%s): incremental %v (%#x) != full %v (%#x)",
						calls, what, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				return got
			}
			check := func(what string, cand *candidate) float64 {
				t.Helper()
				return verify(what, cand, ev.value(cand))
			}
			// checkAt scores a candidate that differs from the last scored
			// one in VNF f alone, through the move-aware entry.
			checkAt := func(what string, cand *candidate, f int) float64 {
				t.Helper()
				return verify(what, cand, ev.valueAt(cand, f))
			}
			cand := c.cloneCandidate(seed)
			other := c.cloneCandidate(seed)
			cur := check("seed", cand)

			// SA: random elementary moves scored move-aware, half reverted
			// and undone.
			sa := &annealer{}
			r := rng.Derive(7, "portfolio/oracle")
			for i := 0; i < 4000; i++ {
				u := sa.propose(c, cand, r)
				if u.kind < 0 {
					continue
				}
				nxt := checkAt("sa move", cand, u.f)
				if r.IntN(2) == 0 {
					cur = nxt
					continue
				}
				revert(cand, u)
				ev.undo()
				if got := checkAt("sa revert+undo", cand, u.f); got != cur {
					t.Fatalf("undo: %v, want the pre-move value %v", got, cur)
				}
			}

			// Alternate move-aware and full-diff calls on one evaluator: a
			// full diff of another candidate (kept or undone), a full diff
			// back to cand, then move-aware SA moves on cand. A slot index
			// or W row left stale by either entry, or by undo, shows up in
			// a later move-aware value.
			for i := 0; i < 400; i++ {
				if i%5 == 0 {
					other.copyFrom(cand)
					for m := r.IntN(4); m >= 0; m-- {
						sa.propose(c, other, r)
					}
					check("full diff", other)
					if r.IntN(2) == 0 {
						ev.undo()
					}
					cur = check("full diff back", cand)
				}
				u := sa.propose(c, cand, r)
				if u.kind < 0 {
					continue
				}
				nxt := checkAt("alternating sa move", cand, u.f)
				switch r.IntN(3) {
				case 0:
					cur = nxt
				case 1:
					revert(cand, u)
					ev.undo()
					if got := checkAt("alternating revert+undo", cand, u.f); got != cur {
						t.Fatalf("undo: %v, want the pre-move value %v", got, cur)
					}
				default:
					revert(cand, u)
					if got := check("alternating revert, full diff", cand); got != cur {
						t.Fatalf("revert: %v, want the pre-move value %v", got, cur)
					}
				}
			}

			// Alternate two candidates on one evaluator, as SA/LNS do with
			// their scratch copy, with and without undo in between.
			for i := 0; i < 200; i++ {
				sa.propose(c, other, r)
				check("scratch", other)
				if i%3 == 0 {
					ev.undo()
				}
				check("incumbent", cand)
			}

			// LNS: destroy/repair trials, accepted or undone.
			l := &lns{destroy: 0.3}
			trial := c.cloneCandidate(cand)
			buf := newShakeBuf(c)
			for i := 0; i < 600; i++ {
				trial.copyFrom(cand)
				switch r.IntN(3) {
				case 0:
					l.closeNode(c, trial, r)
				case 1:
					if !l.shake(c, trial, r, buf) {
						continue
					}
				case 2:
					l.scramble(c, trial, r)
				}
				check("lns trial", trial)
				if r.IntN(2) == 0 {
					cand.copyFrom(trial)
				} else {
					ev.undo()
				}
			}

			// polish, kept or undone.
			for i := 0; i < 3; i++ {
				other.copyFrom(cand)
				sa.propose(c, other, r)
				check("pre-polish", other)
				if got, want := c.polish(ev, other), fullValue(c, other); got != want {
					t.Fatalf("polish: incremental %v != full %v", got, want)
				}
				ev.undo()
				check("post-polish", cand)
			}

			// PSO: random score vectors decoded onto a fixed assignment.
			s := &pso{}
			nN := len(c.nodeIDs)
			x := make([]float64, len(c.vnfIDs)*nN)
			decoded := make([]int, len(c.vnfIDs))
			for i := 0; i < 300; i++ {
				for d := range x {
					x[d] = r.Float64()
				}
				if i%4 == 0 {
					for f, n := range seed.nodeOf {
						x[f*nN+n] += 1
					}
				}
				if !s.decode(c, x, decoded) {
					continue
				}
				copy(cand.nodeOf, decoded)
				check("pso decode", cand)
			}
		})
	}
}
