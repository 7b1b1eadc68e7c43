package placement

import (
	"cmp"
	"slices"

	"nfvchain/internal/model"
)

// Improve runs a deterministic local search on an existing feasible
// placement: it repeatedly tries to *evacuate* the least-loaded node in
// service by relocating each of its VNFs onto other used nodes (best-fit),
// and falls back to single-VNF relocations that strictly tighten packing.
// The result never uses more nodes than the input and stays feasible in
// every resource dimension. This is the paper's "near-optimal" aspiration
// made concrete as a polish pass: BFDSU+Improve closes most of the gap to
// the exact optimum on instances small enough to verify (see tests).
//
// maxRounds bounds the outer loop; 0 means DefaultImproveRounds. It is
// Evacuator.Improve on the placement's index arrays.
func Improve(p *model.Problem, pl *model.Placement, maxRounds int) (*model.Placement, error) {
	if err := pl.Validate(p); err != nil {
		return nil, err
	}
	e := NewEvacuator(p)
	nodeOf := make([]int, len(p.VNFs))
	e.fromPlacement(pl, nodeOf) // Validate saw every VNF placed on a node of p
	e.improve(nodeOf, maxRounds)
	out := &model.Placement{NodeOf: make(map[model.VNFID]model.NodeID, len(nodeOf))}
	for f, n := range nodeOf {
		out.Assign(p.VNFs[f].ID, p.Nodes[n].ID)
	}
	return out, nil
}

// DefaultImproveRounds bounds Improve's evacuation loop; each successful
// round removes one node from service, so the bound is rarely binding.
const DefaultImproveRounds = 64

// PlanEvacuation computes a relocation of every VNF on victim onto other
// used nodes, best-fit greedily, or reports failure. The plan respects all
// resource dimensions and is simulated on scratch residuals before commit;
// pl is not modified. It also fails when pl is not a placement of every
// VNF of p on nodes of p. It is Evacuator.Evacuate, the close-node move
// Improve iterates, on the placement's index arrays.
func PlanEvacuation(p *model.Problem, pl *model.Placement, victim model.NodeID) (map[model.VNFID]model.NodeID, bool) {
	e := NewEvacuator(p)
	nodeOf := make([]int, len(p.VNFs))
	if !e.fromPlacement(pl, nodeOf) {
		return nil, false
	}
	v := e.nodeOrdinal(victim)
	if v < 0 {
		return map[model.VNFID]model.NodeID{}, true // an unknown node hosts nothing
	}
	if !e.Evacuate(nodeOf, v) {
		return nil, false
	}
	moves := make(map[model.VNFID]model.NodeID, len(e.moved))
	for _, f := range e.moved {
		moves[p.VNFs[f].ID] = p.Nodes[nodeOf[f]].ID
	}
	return moves, true
}

// capTolerance is the slack every capacity comparison of node evacuation
// allows, as Placement.Validate does.
const capTolerance = 1e-9

// Evacuator runs node evacuation on index arrays: VNF f sits on node
// nodeOf[f], ordinals being positions in p.Nodes and p.VNFs. It sums every
// load and residual in VNF order and breaks every tie toward the lower ID,
// as the model-space placement methods do, so Improve and PlanEvacuation
// compute the same placements through it. Its tables are read-only once
// built and Clone shares them; its scratch is not, so each goroutine uses
// its own Evacuator.
type Evacuator struct {
	t *evacTables

	load, res   []float64 // per node: CPU load; residual while planning
	xload, xres []float64 // per node × extra resource, row n at n·dims
	hosts       []int     // per node: VNFs it hosts
	used        []int     // nodes in service, by ID
	order       []int     // nodes in service, by load and then ID
	moved       []int     // VNFs the last Evacuate moved
}

// evacTables are an Evacuator's read-only arrays.
type evacTables struct {
	p          *model.Problem
	dims       int
	cap        []float64   // per node
	nodeExtras []float64   // per node × extra resource
	demand     []float64   // per VNF: TotalDemand
	vnfExtras  [][]float64 // per VNF: TotalExtras, nil when it has none
	nodeByID   []int       // node ordinals sorted by ID
	bigFirst   []int       // VNF ordinals by TotalDemand descending, then ID
}

// NewEvacuator lays out p's capacities and demands for node evacuation.
func NewEvacuator(p *model.Problem) *Evacuator {
	nN, nV, dims := len(p.Nodes), len(p.VNFs), p.ExtraResources()
	t := &evacTables{
		p:          p,
		dims:       dims,
		cap:        make([]float64, nN),
		nodeExtras: make([]float64, nN*dims),
		demand:     make([]float64, nV),
		vnfExtras:  make([][]float64, nV),
		nodeByID:   make([]int, nN),
		bigFirst:   make([]int, nV),
	}
	for n := range p.Nodes {
		t.cap[n] = p.Nodes[n].Capacity
		copy(t.nodeExtras[n*dims:(n+1)*dims], p.Nodes[n].Extras)
		t.nodeByID[n] = n
	}
	for f := range p.VNFs {
		t.demand[f] = p.VNFs[f].TotalDemand()
		t.vnfExtras[f] = p.VNFs[f].TotalExtras()
		t.bigFirst[f] = f
	}
	slices.SortFunc(t.nodeByID, func(a, b int) int {
		return cmp.Or(cmp.Compare(p.Nodes[a].ID, p.Nodes[b].ID), cmp.Compare(a, b))
	})
	slices.SortFunc(t.bigFirst, func(a, b int) int {
		return cmp.Or(cmp.Compare(t.demand[b], t.demand[a]), cmp.Compare(p.VNFs[a].ID, p.VNFs[b].ID), cmp.Compare(a, b))
	})
	return t.newEvacuator()
}

// Clone returns an Evacuator sharing e's tables, with scratch of its own.
func (e *Evacuator) Clone() *Evacuator { return e.t.newEvacuator() }

func (t *evacTables) newEvacuator() *Evacuator {
	nN, nV := len(t.cap), len(t.demand)
	floats := make([]float64, 2*nN+2*nN*t.dims)
	ints := make([]int, 3*nN+nV)
	return &Evacuator{
		t:     t,
		load:  carve(&floats, nN),
		res:   carve(&floats, nN),
		xload: carve(&floats, nN*t.dims),
		xres:  carve(&floats, nN*t.dims),
		hosts: carve(&ints, nN),
		used:  carve(&ints, nN)[:0],
		order: carve(&ints, nN)[:0],
		moved: carve(&ints, nV)[:0],
	}
}

// carve cuts an n-element slice off the front of *buf, so that several
// scratch arrays share one allocation.
func carve[T any](buf *[]T, n int) []T {
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}

// UsedNodes returns the nodes nodeOf keeps in service, sorted by ID. The
// slice is scratch, valid until e's next call.
func (e *Evacuator) UsedNodes(nodeOf []int) []int {
	e.survey(nodeOf)
	return e.used
}

// Improve is the model-space Improve on index arrays: it evacuates nodes
// of nodeOf in place and returns true, or returns false and leaves nodeOf
// as it is when nodeOf overloads a node in some resource dimension, the
// placements Placement.Validate rejects.
func (e *Evacuator) Improve(nodeOf []int, maxRounds int) bool {
	e.survey(nodeOf)
	t := e.t
	for _, n := range e.used {
		if e.load[n] > t.cap[n]+capTolerance {
			return false
		}
		for d := n * t.dims; d < (n+1)*t.dims; d++ {
			if e.xload[d] > t.nodeExtras[d]+capTolerance {
				return false
			}
		}
	}
	e.improve(nodeOf, maxRounds)
	return true
}

// improve is Improve on a feasible nodeOf.
func (e *Evacuator) improve(nodeOf []int, maxRounds int) {
	if maxRounds <= 0 {
		maxRounds = DefaultImproveRounds
	}
	for round := 0; round < maxRounds; round++ {
		if !e.evacuateOne(nodeOf) {
			break
		}
	}
}

// evacuateOne empties one node in service, trying the least loaded first;
// true when a node was evacuated.
func (e *Evacuator) evacuateOne(nodeOf []int) bool {
	e.survey(nodeOf)
	if len(e.used) <= 1 {
		return false
	}
	// A stable sort of the ID-ordered nodes breaks load ties by ID.
	e.order = append(e.order[:0], e.used...)
	slices.SortStableFunc(e.order, func(a, b int) int { return cmp.Compare(e.load[a], e.load[b]) })
	for _, victim := range e.order {
		if e.plan(nodeOf, victim) {
			return true
		}
	}
	return false
}

// Evacuate relocates every VNF on victim onto the other nodes in service,
// largest first, each onto the fitting node with the smallest residual;
// false when some VNF fits nowhere, and then nodeOf is left as it is.
func (e *Evacuator) Evacuate(nodeOf []int, victim int) bool {
	e.survey(nodeOf)
	return e.plan(nodeOf, victim)
}

// survey fills the loads, the host counts and the ID-ordered nodes in
// service of nodeOf.
func (e *Evacuator) survey(nodeOf []int) {
	t := e.t
	clear(e.load)
	clear(e.xload)
	clear(e.hosts)
	for f, n := range nodeOf {
		e.load[n] += t.demand[f]
		e.hosts[n]++
		if t.dims > 0 {
			row := e.xload[n*t.dims : (n+1)*t.dims]
			for d, x := range t.vnfExtras[f] {
				row[d] += x
			}
		}
	}
	e.used = e.used[:0]
	for _, n := range t.nodeByID {
		if e.hosts[n] > 0 {
			e.used = append(e.used, n)
		}
	}
}

// plan is Evacuate after survey.
func (e *Evacuator) plan(nodeOf []int, victim int) bool {
	t := e.t
	for n := range e.res {
		e.res[n] = t.cap[n] - e.load[n]
	}
	for d := range e.xres {
		e.xres[d] = t.nodeExtras[d] - e.xload[d]
	}
	e.moved = e.moved[:0]
	for _, f := range t.bigFirst {
		if nodeOf[f] != victim {
			continue
		}
		// e.used is in ID order, so a strict comparison keeps the lower
		// ID on a residual tie.
		best := -1
		for _, v := range e.used {
			if v != victim && e.fits(v, f) && (best < 0 || e.res[v] < e.res[best]) {
				best = v
			}
		}
		if best < 0 {
			for _, g := range e.moved {
				nodeOf[g] = victim
			}
			e.moved = e.moved[:0]
			return false
		}
		nodeOf[f] = best
		e.moved = append(e.moved, f)
		e.res[best] -= t.demand[f]
		if t.dims > 0 {
			row := e.xres[best*t.dims : (best+1)*t.dims]
			for d, x := range t.vnfExtras[f] {
				row[d] -= x
			}
		}
	}
	return true
}

// fits reports whether VNF f fits node v's planning residuals.
func (e *Evacuator) fits(v, f int) bool {
	t := e.t
	if e.res[v] < t.demand[f]-capTolerance {
		return false
	}
	if t.dims > 0 {
		row := e.xres[v*t.dims : (v+1)*t.dims]
		for d, x := range t.vnfExtras[f] {
			if row[d] < x-capTolerance {
				return false
			}
		}
	}
	return true
}

// fromPlacement imports pl into nodeOf; false when pl does not place every
// VNF of p, and nothing else, on a node of p.
func (e *Evacuator) fromPlacement(pl *model.Placement, nodeOf []int) bool {
	p := e.t.p
	if len(pl.NodeOf) != len(p.VNFs) {
		return false
	}
	for f := range p.VNFs {
		nid, ok := pl.Node(p.VNFs[f].ID)
		if !ok {
			return false
		}
		if nodeOf[f] = e.nodeOrdinal(nid); nodeOf[f] < 0 {
			return false
		}
	}
	return true
}

// nodeOrdinal returns the ordinal of node id, or −1 when p has no such node.
func (e *Evacuator) nodeOrdinal(id model.NodeID) int {
	t := e.t
	i, ok := slices.BinarySearchFunc(t.nodeByID, id, func(n int, id model.NodeID) int {
		return cmp.Compare(t.p.Nodes[n].ID, id)
	})
	if !ok {
		return -1
	}
	return t.nodeByID[i]
}
