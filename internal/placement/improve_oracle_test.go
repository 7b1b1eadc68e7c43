package placement

import (
	"fmt"
	"maps"
	"sort"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
)

// refImprove, refEvacuateOne and refPlanEvacuation are node evacuation as
// it was written on model.Placement maps before it moved to the
// Evacuator's index arrays. They are the oracle the index-space
// implementation must match plan for plan.
func refImprove(p *model.Problem, pl *model.Placement, maxRounds int) (*model.Placement, error) {
	if err := pl.Validate(p); err != nil {
		return nil, err
	}
	if maxRounds <= 0 {
		maxRounds = DefaultImproveRounds
	}
	cur := pl.Clone()
	for round := 0; round < maxRounds; round++ {
		if !refEvacuateOne(p, cur) {
			break
		}
	}
	return cur, nil
}

func refEvacuateOne(p *model.Problem, pl *model.Placement) bool {
	used := pl.UsedNodes()
	if len(used) <= 1 {
		return false
	}
	load := pl.Load(p)
	// Try the least-loaded nodes first.
	sort.Slice(used, func(i, j int) bool {
		if load[used[i]] != load[used[j]] {
			return load[used[i]] < load[used[j]]
		}
		return used[i] < used[j]
	})
	for _, victim := range used {
		if moves, ok := refPlanEvacuation(p, pl, victim); ok {
			for f, v := range moves {
				pl.Assign(f, v)
			}
			return true
		}
	}
	return false
}

func refPlanEvacuation(p *model.Problem, pl *model.Placement, victim model.NodeID) (map[model.VNFID]model.NodeID, bool) {
	// Residuals of every other used node.
	residual := pl.Residual(p)
	extras := refScratchExtras(p, pl)
	targets := pl.UsedNodes()

	// Victim's VNFs, largest first (hardest to re-home).
	var vnfs []model.VNF
	for _, fid := range pl.VNFsOn(victim) {
		f, ok := p.VNF(fid)
		if !ok {
			return nil, false
		}
		vnfs = append(vnfs, f)
	}
	sort.SliceStable(vnfs, func(i, j int) bool {
		di, dj := vnfs[i].TotalDemand(), vnfs[j].TotalDemand()
		if di != dj {
			return di > dj
		}
		return vnfs[i].ID < vnfs[j].ID
	})

	moves := make(map[model.VNFID]model.NodeID, len(vnfs))
	for _, f := range vnfs {
		best := model.NodeID("")
		bestRes := 0.0
		for _, v := range targets {
			if v == victim {
				continue
			}
			if !refFitsScratch(residual, extras, v, f) {
				continue
			}
			if best == "" || residual[v] < bestRes || (residual[v] == bestRes && v < best) {
				best, bestRes = v, residual[v]
			}
		}
		if best == "" {
			return nil, false
		}
		moves[f.ID] = best
		residual[best] -= f.TotalDemand()
		for dim, e := range f.TotalExtras() {
			extras[best][dim] -= e
		}
	}
	return moves, true
}

func refScratchExtras(p *model.Problem, pl *model.Placement) map[model.NodeID][]float64 {
	if p.ExtraResources() == 0 {
		return nil
	}
	out := make(map[model.NodeID][]float64, len(p.Nodes))
	loads := pl.ExtrasLoad(p)
	for _, n := range p.Nodes {
		row := append([]float64(nil), n.Extras...)
		for dim, used := range loads[n.ID] {
			row[dim] -= used
		}
		out[n.ID] = row
	}
	return out
}

func refFitsScratch(residual map[model.NodeID]float64, extras map[model.NodeID][]float64, v model.NodeID, f model.VNF) bool {
	if residual[v] < f.TotalDemand()-1e-9 {
		return false
	}
	if extras != nil {
		row := extras[v]
		for dim, e := range f.TotalExtras() {
			if row[dim] < e-1e-9 {
				return false
			}
		}
	}
	return true
}

// evacuationInstance draws a problem and a complete placement of it:
// integer and tenth-unit demands and capacities, so loads, residuals and
// demands tie often, node and VNF IDs in an order unrelated to their
// ordinals ("n10" sorts before "n2"), and up to two extra resources. About
// one placement in eight overloads a node, which Improve must reject.
func evacuationInstance(r *rng.Stream) (*model.Problem, *model.Placement) {
	nN, nV, dims := 2+r.IntN(9), 1+r.IntN(24), r.IntN(3)
	quantum := []float64{1, 0.1, 1.0 / 3}[r.IntN(3)]
	p := &model.Problem{}
	for _, id := range r.Perm(nN) {
		n := model.Node{ID: model.NodeID(fmt.Sprintf("n%d", id)), Capacity: float64(10+r.IntN(40)) * quantum * 3}
		for d := 0; d < dims; d++ {
			n.Extras = append(n.Extras, float64(4+r.IntN(12)))
		}
		p.Nodes = append(p.Nodes, n)
	}
	for _, id := range r.Perm(nV) {
		f := model.VNF{ID: model.VNFID(fmt.Sprintf("f%d", id)), Instances: 1 + r.IntN(3),
			Demand: float64(1+r.IntN(6)) * quantum, ServiceRate: 1}
		for d := 0; d < dims; d++ {
			f.Extras = append(f.Extras, float64(r.IntN(3)))
		}
		p.VNFs = append(p.VNFs, f)
	}
	pl := model.NewPlacement()
	overload := r.IntN(8) == 0
	load := make([]float64, nN)
	xload := make([][]float64, nN)
	for n := range xload {
		xload[n] = make([]float64, dims)
	}
	for _, f := range p.VNFs {
		// A random node that fits, else (or when overloading) any node.
		n := r.IntN(nN)
		for try := 0; try < 2*nN && !overload; try++ {
			ok := load[n]+f.TotalDemand() <= p.Nodes[n].Capacity
			for d, x := range f.TotalExtras() {
				ok = ok && xload[n][d]+x <= p.Nodes[n].Extras[d]
			}
			if ok {
				break
			}
			n = r.IntN(nN)
		}
		load[n] += f.TotalDemand()
		for d, x := range f.TotalExtras() {
			xload[n][d] += x
		}
		pl.Assign(f.ID, p.Nodes[n].ID)
	}
	return p, pl
}

// TestEvacuationMatchesReference requires Improve and PlanEvacuation to
// return exactly what the map-based reference returns — the same error or
// placement from Improve, and for every node as victim the same plan — on
// random problems with extra resources and with load, residual and demand
// ties.
func TestEvacuationMatchesReference(t *testing.T) {
	r := rng.New(97)
	trials := 3000
	if testing.Short() {
		trials = 300
	}
	evacuated := 0
	for trial := 0; trial < trials; trial++ {
		p, pl := evacuationInstance(r)
		rounds := r.IntN(4) // 0 is DefaultImproveRounds
		got, gotErr := Improve(p, pl, rounds)
		want, wantErr := refImprove(p, pl, rounds)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("trial %d: Improve error %v, reference %v", trial, gotErr, wantErr)
		}
		if gotErr == nil && !maps.Equal(got.NodeOf, want.NodeOf) {
			t.Fatalf("trial %d: Improve %v, reference %v (input %v)", trial, got.NodeOf, want.NodeOf, pl.NodeOf)
		}
		if gotErr == nil && got.NodesInService() < pl.NodesInService() {
			evacuated++
		}
		for _, n := range append(p.Nodes, model.Node{ID: "absent"}) {
			gotPlan, gotOK := PlanEvacuation(p, pl, n.ID)
			wantPlan, wantOK := refPlanEvacuation(p, pl, n.ID)
			if gotOK != wantOK || !maps.Equal(gotPlan, wantPlan) {
				t.Fatalf("trial %d victim %s: plan %v %v, reference %v %v", trial, n.ID, gotPlan, gotOK, wantPlan, wantOK)
			}
		}
	}
	if evacuated < trials/10 {
		t.Fatalf("only %d of %d trials evacuated a node; the instances test too little", evacuated, trials)
	}
}
