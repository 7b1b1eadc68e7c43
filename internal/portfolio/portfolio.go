// Package portfolio optimizes chain placement and request scheduling
// jointly behind one Solver interface and races several solvers against a
// deadline. It is the anytime tier above the fixed two-phase pipeline: the
// greedy and exact pipelines are wrapped as baseline solvers, and a
// metaheuristic tier — simulated annealing and large-neighborhood search
// over (placement, assignment) moves plus particle-swarm optimization over
// placement score vectors with the KK schedulers as inner evaluator —
// searches beyond them. Every solver is deterministic at a fixed seed and
// reports monotone incumbents; Race runs K solvers on parallel workers
// sharing a best-so-far incumbent and returns the deterministic winner.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"time"

	"nfvchain/internal/model"
	"nfvchain/internal/placement"
	"nfvchain/internal/scheduling"
)

// Objective scalarizes the paper's two objectives — nodes in service
// (Eq. 14) and mean per-request latency (Eq. 16) — into one lower-is-better
// value so heterogeneous solvers compare incumbents on a single axis.
type Objective struct {
	// NodeWeight multiplies the nodes-in-service count.
	NodeWeight float64
	// LatencyWeight multiplies the mean per-request latency (seconds).
	LatencyWeight float64
	// LinkDelay is the inter-node hop delay L of Eq. 16.
	LinkDelay float64
	// UnstablePenalty replaces Eq. 11's response time on an instance with
	// Λ ≥ µ, scaled by the overload ratio so moves toward stability are
	// still rewarded. Metaheuristics may traverse unstable schedules; final
	// solutions pass through admission control downstream.
	UnstablePenalty float64
}

// DefaultObjective balances the two terms so that opening one extra node
// trades against ~40ms of mean request latency.
func DefaultObjective() Objective {
	return Objective{NodeWeight: 1, LatencyWeight: 25, LinkDelay: 1e-3, UnstablePenalty: 10}
}

func (o Objective) withDefaults() Objective {
	d := DefaultObjective()
	if o.NodeWeight == 0 && o.LatencyWeight == 0 {
		o.NodeWeight, o.LatencyWeight = d.NodeWeight, d.LatencyWeight
	}
	if o.LinkDelay == 0 {
		o.LinkDelay = d.LinkDelay
	}
	if o.UnstablePenalty == 0 {
		o.UnstablePenalty = d.UnstablePenalty
	}
	return o
}

// Incumbent is one monotone improvement reported by a solver: the objective
// of its best (placement, schedule) pair so far and when it was found. The
// pair itself stays in the solver's index space; the final one is returned
// in model space as the Solution.
type Incumbent struct {
	Solver    string
	Objective float64
	// Iteration is the solver-local iteration that produced the incumbent;
	// it is deterministic at a fixed seed, unlike the wall-clock fields.
	Iteration int
	Elapsed   time.Duration
	At        time.Time
}

// Solution is a solver's final answer: its best incumbent plus run totals.
type Solution struct {
	Solver     string
	Objective  float64
	Iterations int
	// Incumbents counts the solver-local monotone improvements reported.
	Incumbents int
	Placement  *model.Placement
	Schedule   *model.Schedule
}

// Solver optimizes placement and scheduling jointly. Solve runs until its
// iteration budget is exhausted or ctx is done, reporting each strict
// improvement through report (which may be nil), and returns its best
// solution; when ctx expires after at least one incumbent was found, Solve
// returns that best-so-far with a nil error. Implementations are
// deterministic at a fixed seed: the (iteration, objective) incumbent
// trajectory is identical across runs.
type Solver interface {
	Name() string
	Solve(ctx context.Context, p *model.Problem, report func(Incumbent)) (*Solution, error)
}

// racer is the internal face of every Solver Spec.Build returns: solve
// runs the solver on an already compiled problem, which Race compiles once
// and shares read-only among its racers. Solve is compile plus solve.
type racer interface {
	Solver
	solve(ctx context.Context, c *compiled, report func(Incumbent)) (*Solution, error)
}

// solveProblem is the body of every Solve: compile p, then solve it.
func solveProblem(ctx context.Context, s racer, p *model.Problem, obj Objective, report func(Incumbent)) (*Solution, error) {
	c, err := compile(p, obj)
	if err != nil {
		return nil, err
	}
	return s.solve(ctx, c, report)
}

// capEps mirrors the placement package's capacity tolerance.
const capEps = 1e-9

// improveEps is the strict-improvement threshold for incumbent publication.
const improveEps = 1e-12

// compiled is the index-space view of a Problem shared by all solvers:
// dense slices instead of ID-keyed maps, so candidate evaluation is a few
// linear scans. It is read-only once built (the seeds are computed once,
// behind their sync.Once), so one race shares it among all its racers.
type compiled struct {
	p   *model.Problem
	obj Objective
	// ix holds the problem's ordinals and chain layout. Each (request,
	// chain position) term of the evaluator lives at its chain slot, and
	// items[f] is built from R_f, so item i of VNF f belongs to request
	// ix.Users(f)[i] and its term sits at slot ix.UserSlots(f)[i]. Validate
	// rejects a VNF repeated within one chain, so each request appears at
	// most once per VNF.
	ix *model.Index

	nodeIDs    []model.NodeID
	cap        []float64
	nodeExtras [][]float64

	vnfIDs    []model.VNFID
	demand    []float64   // TotalDemand per VNF
	vnfExtras [][]float64 // TotalExtras per VNF
	inst      []int       // M_f
	mu        []float64   // µ_f

	items [][]scheduling.Item // per VNF, in ItemsFor order
	rawW  [][]float64         // per VNF item: raw rate λ_r (items carry λ_r/P_r)

	// movable lists VNF indices with ≥1 item and ≥2 instances — the ones
	// scheduling moves can act on. demandOrder sorts VNF indices by total
	// demand descending (ties by ID), the order every repair packs in.
	movable     []int
	demandOrder []int
	dims        int

	// W(f,k) of every VNF lives in one slice of nInst entries, VNF f's row
	// from woff[f].
	woff  []int
	nInst int

	// The deterministic starting points, computed once on first use and
	// shared by every solver on this compiled problem.
	bfdOnce  sync.Once
	bfd      []int // BFD placement as node indices; nil when BFD dead-ends
	rckkOnce sync.Once
	rckk     [][]int // RCKK assignment rows, in items order
	rckkErr  error
}

func compile(p *model.Problem, obj Objective) (*compiled, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("portfolio: %w", err)
	}
	if err := placement.Precheck(p); err != nil {
		return nil, fmt.Errorf("portfolio: %w", err)
	}
	c := &compiled{
		p:    p,
		obj:  obj.withDefaults(),
		ix:   model.Compile(p),
		dims: p.ExtraResources(),
	}
	for _, n := range p.Nodes {
		c.nodeIDs = append(c.nodeIDs, n.ID)
		c.cap = append(c.cap, n.Capacity)
		row := make([]float64, c.dims)
		copy(row, n.Extras)
		c.nodeExtras = append(c.nodeExtras, row)
	}
	items := make([]scheduling.Item, c.ix.Slots())
	raw := make([]float64, c.ix.Slots())
	for i, f := range p.VNFs {
		c.vnfIDs = append(c.vnfIDs, f.ID)
		c.demand = append(c.demand, f.TotalDemand())
		row := make([]float64, c.dims)
		copy(row, f.TotalExtras())
		c.vnfExtras = append(c.vnfExtras, row)
		c.inst = append(c.inst, f.Instances)
		c.mu = append(c.mu, f.ServiceRate)

		// R_f in request order is scheduling.ItemsFor's item order.
		users := c.ix.Users(i)
		fItems, fRaw := carve(&items, len(users)), carve(&raw, len(users))
		for j, r := range users {
			req := &p.Requests[r]
			fItems[j] = scheduling.Item{ID: req.ID, Weight: req.EffectiveRate()}
			fRaw[j] = req.Rate
		}
		c.items = append(c.items, fItems)
		c.rawW = append(c.rawW, fRaw)
		if len(users) > 0 && f.Instances > 1 {
			c.movable = append(c.movable, i)
		}
	}
	c.woff = make([]int, len(p.VNFs))
	for f, m := range c.inst {
		c.woff[f] = c.nInst
		c.nInst += m
	}
	c.demandOrder = make([]int, len(p.VNFs))
	for i := range c.demandOrder {
		c.demandOrder[i] = i
	}
	// Insertion sort keeps ordering stable and avoids a sort.Slice closure.
	for i := 1; i < len(c.demandOrder); i++ {
		for j := i; j > 0; j-- {
			a, b := c.demandOrder[j-1], c.demandOrder[j]
			if c.demand[a] > c.demand[b] || (c.demand[a] == c.demand[b] && c.vnfIDs[a] <= c.vnfIDs[b]) {
				break
			}
			c.demandOrder[j-1], c.demandOrder[j] = b, a
		}
	}
	return c, nil
}

// candidate is a joint solution in index space: nodeOf[f] hosts VNF f's
// whole instance bundle (Eq. 2); assign[f][i] is the instance serving item
// i of VNF f.
type candidate struct {
	nodeOf []int
	assign [][]int
}

func (c *compiled) newCandidate() *candidate {
	return &candidate{nodeOf: make([]int, len(c.vnfIDs)), assign: c.newRows()}
}

// newRows allocates one assignment row per VNF, all in one buffer.
func (c *compiled) newRows() [][]int {
	rows := make([][]int, len(c.items))
	buf := make([]int, c.ix.Slots())
	for f := range c.items {
		rows[f] = carve(&buf, len(c.items[f]))
	}
	return rows
}

func (cand *candidate) copyFrom(o *candidate) {
	copy(cand.nodeOf, o.nodeOf)
	copyRows(cand.assign, o.assign)
}

func copyRows(dst, src [][]int) {
	for f := range dst {
		copy(dst[f], src[f])
	}
}

func (c *compiled) cloneCandidate(cand *candidate) *candidate {
	out := c.newCandidate()
	out.copyFrom(cand)
	return out
}

// toPlacement materializes the model-space placement of cand.
func (c *compiled) toPlacement(cand *candidate) *model.Placement {
	pl := model.NewPlacement()
	for f, n := range cand.nodeOf {
		pl.Assign(c.vnfIDs[f], c.nodeIDs[n])
	}
	return pl
}

// toSchedule materializes the model-space schedule of cand.
func (c *compiled) toSchedule(cand *candidate) *model.Schedule {
	s := model.NewSchedule()
	for f, items := range c.items {
		fid := c.vnfIDs[f]
		for i, it := range items {
			s.Assign(it.ID, fid, cand.assign[f][i])
		}
	}
	return s
}

// fromPlacement imports a model-space placement into nodeOf.
func (c *compiled) fromPlacement(pl *model.Placement, nodeOf []int) error {
	for f, fid := range c.vnfIDs {
		nid, ok := pl.Node(fid)
		if !ok {
			return fmt.Errorf("portfolio: vnf %s unplaced", fid)
		}
		n, ok := c.ix.Node(nid)
		if !ok {
			return fmt.Errorf("portfolio: vnf %s on unknown node %s", fid, nid)
		}
		nodeOf[f] = n
	}
	return nil
}

// fromSchedule imports a model-space schedule into assignment rows.
func (c *compiled) fromSchedule(s *model.Schedule, assign [][]int) error {
	for f, fid := range c.vnfIDs {
		for i, it := range c.items[f] {
			k, ok := s.Instance(it.ID, fid)
			if !ok {
				return fmt.Errorf("portfolio: request %s unassigned at %s", it.ID, fid)
			}
			assign[f][i] = k
		}
	}
	return nil
}

// applyPlacement overwrites cand's placement from a model-space placement.
func (c *compiled) applyPlacement(pl *model.Placement, cand *candidate) {
	for f, fid := range c.vnfIDs {
		if nid, ok := pl.Node(fid); ok {
			cand.nodeOf[f], _ = c.ix.Node(nid)
		}
	}
}

// bfdPlacement returns the BFD placement of the problem as node indices,
// or nil when BFD dead-ends. It is computed once per compiled problem.
func (c *compiled) bfdPlacement() []int {
	c.bfdOnce.Do(func() {
		res, err := (placement.BFD{}).Place(c.p)
		if err != nil {
			return
		}
		nodeOf := make([]int, len(c.vnfIDs))
		if c.fromPlacement(res.Placement, nodeOf) == nil {
			c.bfd = nodeOf
		}
	})
	return c.bfd
}

// rckkSchedule returns the RCKK schedule of the problem as assignment
// rows, or scheduling.ScheduleAll's error. It is computed once per
// compiled problem; callers copy the rows, never write them.
func (c *compiled) rckkSchedule() ([][]int, error) {
	c.rckkOnce.Do(func() {
		s, err := scheduling.ScheduleAll(c.p, scheduling.RCKK{})
		if err == nil {
			rows := c.newRows()
			if err = c.fromSchedule(s, rows); err == nil {
				c.rckk = rows
			}
		}
		c.rckkErr = err
	})
	return c.rckk, c.rckkErr
}

// evaluator scores candidates against the compiled objective
// incrementally. It keeps a snapshot of the last candidate it scored —
// placement, assignment rows, the W(f,k) rows of Eq. 11 in one flat slice,
// per (request, chain position) the slot of its term in that slice and
// the node serving it, and per request the chain's W sum, node span and
// Eq. 16 latency — and on each call rescores only what differs from that
// snapshot. A changed assignment row recomputes that VNF's W row, moves
// the slots of the items whose instance changed, and marks for a new W sum
// only the requests whose own term changed: their item moved or its
// W(f,k) changed bits; any other request would re-sum to the same bits. A
// changed node recomputes only the spans of its requests. Every cached
// number comes from the same expression, evaluated in the same order, as a
// full rescoring — chain order within a request, request order for the
// total — and the total is re-summed over all requests rather than patched
// with deltas, so every value is bit-identical to scoring from scratch and
// a search follows the same trajectory. undo rolls the snapshot back over
// the last call so a rejected move is not rescored twice. An evaluator is
// owned by one solver and is never shared across goroutines.
type evaluator struct {
	c     *compiled
	stamp []int // per node, epoch marks for distinct-node counting
	epoch int
	eff   []float64 // scratch Λ (effective) of the VNF being rescored
	raw   []float64 // scratch Σλ (raw) of the VNF being rescored

	// Snapshot of the last scored candidate and its cached terms.
	nodeOf []int
	assign [][]int
	w      []float64 // W(f,k) at c.woff[f]+k
	slot   []int     // per (request, chain position): index into w
	node   []int     // per (request, chain position): node of that VNF
	req    []reqTerms
	used   int // distinct nodes in service
	val    float64

	mark []uint8 // per request: dirtyWsum|dirtySpan while rescoring
	j    journal
}

// reqTerms are one request's cached terms.
type reqTerms struct {
	wsum float64 // Σ W along the chain, in chain order
	lat  float64 // wsum + (span−1)·L
	span int     // distinct nodes the chain visits
}

// journal holds what the last scoring call overwrote in the snapshot.
// Assignment and W rows are saved by copy into buffers laid out like the
// snapshot's, and undo copies them back.
type journal struct {
	ok     bool  // holds the last call and has not been undone
	nodes  []int // VNFs whose node changed
	nodeOf []int // per VNF: previous node
	rows   []int // VNFs whose assignment row changed
	assign [][]int
	w      []float64
	reqs   []savedReq // requests rescored, with their previous terms
	used   int
	val    float64
}

type savedReq struct {
	r int
	t reqTerms
}

const (
	dirtyWsum uint8 = 1 << iota
	dirtySpan
)

// carve cuts an n-element slice off the front of *buf, so that many rows
// share one allocation.
func carve[T any](buf *[]T, n int) []T {
	s := (*buf)[:n:n]
	*buf = (*buf)[n:]
	return s
}

func newEvaluator(c *compiled) *evaluator {
	nV, nN, nR := len(c.vnfIDs), len(c.nodeIDs), len(c.p.Requests)
	maxInst := 0
	for _, m := range c.inst {
		maxInst = max(maxInst, m)
	}
	nItems := c.ix.Slots()
	ints := make([]int, nN+4*nV+4*nItems)
	floats := make([]float64, 2*maxInst+2*c.nInst)
	intRows := make([][]int, 2*nV)
	e := &evaluator{
		c:      c,
		stamp:  carve(&ints, nN),
		eff:    carve(&floats, maxInst),
		raw:    carve(&floats, maxInst),
		nodeOf: carve(&ints, nV),
		assign: carve(&intRows, nV),
		w:      carve(&floats, c.nInst),
		slot:   carve(&ints, nItems),
		node:   carve(&ints, nItems),
		req:    make([]reqTerms, nR),
		mark:   make([]uint8, nR),
		j: journal{
			nodes:  carve(&ints, nV)[:0],
			nodeOf: carve(&ints, nV),
			rows:   carve(&ints, nV)[:0],
			assign: carve(&intRows, nV),
			w:      carve(&floats, c.nInst),
			reqs:   make([]savedReq, 0, nR),
		},
	}
	for f := range c.vnfIDs {
		// The empty snapshot matches no candidate (node and instance −1),
		// so the first call scores everything.
		e.nodeOf[f] = -1
		e.assign[f], e.j.assign[f] = carve(&ints, len(c.items[f])), carve(&ints, len(c.items[f]))
		for i := range e.assign[f] {
			e.assign[f][i] = -1
		}
	}
	return e
}

// value computes the scalar objective of cand: NodeWeight·(nodes in
// service) + LatencyWeight·(mean Eq. 16 latency), with UnstablePenalty
// standing in for Eq. 11 on overloaded instances. cand becomes the
// snapshot the next call is diffed against.
func (e *evaluator) value(cand *candidate) float64 { return e.score(cand, 0, len(e.nodeOf)) }

// valueAt is value for a candidate that differs from the snapshot in VNF f
// alone — its node, its assignment row, or both — as after one SA move on
// the last scored candidate. It diffs only VNF f.
func (e *evaluator) valueAt(cand *candidate, f int) float64 { return e.score(cand, f, f+1) }

// score is value restricted to diffing VNFs lo..hi−1 against the
// snapshot; VNFs outside the range must already match it.
func (e *evaluator) score(cand *candidate, lo, hi int) float64 {
	c, j := e.c, &e.j
	j.ok, j.val, j.used = true, e.val, e.used
	j.nodes, j.rows, j.reqs = j.nodes[:0], j.rows[:0], j.reqs[:0]
	for f := lo; f < hi; f++ {
		if n := cand.nodeOf[f]; n != e.nodeOf[f] {
			j.nodes = append(j.nodes, f)
			j.nodeOf[f], e.nodeOf[f] = e.nodeOf[f], n
			e.moveVNF(f, n)
			for _, r := range c.ix.Users(f) {
				e.markReq(int(r), dirtySpan)
			}
		}
		if !slices.Equal(cand.assign[f], e.assign[f]) {
			j.rows = append(j.rows, f)
			e.rescoreVNF(f, cand.assign[f])
		}
	}
	if len(j.nodes) == 0 && len(j.rows) == 0 {
		return e.val
	}
	for i := range j.reqs {
		s := &j.reqs[i]
		s.t = e.req[s.r]
		e.rescoreRequest(s.r)
	}
	if len(j.nodes) > 0 {
		e.epoch++
		e.used = 0
		for _, n := range e.nodeOf {
			if e.stamp[n] != e.epoch {
				e.stamp[n] = e.epoch
				e.used++
			}
		}
	}
	var total float64
	for i := range e.req {
		total += e.req[i].lat
	}
	mean := 0.0
	if len(e.req) > 0 {
		mean = total / float64(len(e.req))
	}
	e.val = c.obj.NodeWeight*float64(e.used) + c.obj.LatencyWeight*mean
	return e.val
}

// markReq flags request r for rescoring.
func (e *evaluator) markReq(r int, dirty uint8) {
	if e.mark[r] == 0 {
		e.j.reqs = append(e.j.reqs, savedReq{r: r})
	}
	e.mark[r] |= dirty
}

// moveVNF records node n as the node of every chain position VNF f
// serves.
func (e *evaluator) moveVNF(f, n int) {
	for _, s := range e.c.ix.UserSlots(f) {
		e.node[s] = n
	}
}

// rescoreVNF journals VNF f's assignment and W rows, installs next as its
// assignment, recomputes its W row, and marks the requests whose term
// changed.
func (e *evaluator) rescoreVNF(f int, next []int) {
	c := e.c
	lo := c.woff[f]
	w, prevW := e.w[lo:lo+c.inst[f]], e.j.w[lo:lo+c.inst[f]]
	asg, prev := e.assign[f], e.j.assign[f]
	copy(prevW, w)
	copy(prev, asg)
	copy(asg, next)
	eff, raw := e.eff[:len(w)], e.raw[:len(w)]
	for k := range eff {
		eff[k], raw[k] = 0, 0
	}
	items := c.items[f]
	for i := range items {
		k := asg[i]
		eff[k] += items[i].Weight
		raw[k] += c.rawW[f][i]
	}
	mu := c.mu[f]
	for k := range w {
		switch {
		case raw[k] <= 0:
			w[k] = 0
		case eff[k] >= mu:
			w[k] = c.obj.UnstablePenalty * (1 + eff[k]/mu)
		default:
			rho := eff[k] / mu
			w[k] = rho / ((1 - rho) * raw[k])
		}
	}
	slots, reqs := c.ix.UserSlots(f), c.ix.Users(f)
	for i, k := range asg {
		if k != prev[i] {
			e.slot[slots[i]] = lo + k
		} else if math.Float64bits(w[k]) == math.Float64bits(prevW[k]) {
			continue
		}
		e.markReq(int(reqs[i]), dirtyWsum)
	}
}

// rescoreRequest recomputes the flagged terms of request r and its
// latency, then clears its flags.
func (e *evaluator) rescoreRequest(r int) {
	c := e.c
	t := &e.req[r]
	lo, hi := c.ix.ChainSlots(r)
	dirty := e.mark[r]
	e.mark[r] = 0
	if dirty&dirtyWsum != 0 {
		var wsum float64
		for _, s := range e.slot[lo:hi] {
			wsum += e.w[s]
		}
		t.wsum = wsum
	}
	if dirty&dirtySpan != 0 {
		e.epoch++
		span := 0
		for _, n := range e.node[lo:hi] {
			if e.stamp[n] != e.epoch {
				e.stamp[n] = e.epoch
				span++
			}
		}
		t.span = span
	}
	lat := t.wsum
	if t.span > 1 {
		lat += float64(t.span-1) * c.obj.LinkDelay
	}
	t.lat = lat
}

// undo rolls the snapshot back to before the last scoring call, which the
// caller pairs with reverting the candidate that call scored. It is a
// no-op when nothing was scored since the last undo; undoing is never
// needed for correctness, only to keep the next diff small.
func (e *evaluator) undo() {
	c, j := e.c, &e.j
	if !j.ok {
		return
	}
	j.ok = false
	for _, f := range j.nodes {
		e.nodeOf[f] = j.nodeOf[f]
		e.moveVNF(f, j.nodeOf[f])
	}
	for _, f := range j.rows {
		lo := c.woff[f]
		copy(e.w[lo:lo+c.inst[f]], j.w[lo:lo+c.inst[f]])
		asg, slots := e.assign[f], c.ix.UserSlots(f)
		for i, k := range j.assign[f] {
			if asg[i] != k {
				asg[i] = k
				e.slot[slots[i]] = lo + k
			}
		}
	}
	for _, s := range j.reqs {
		e.req[s.r] = s.t
	}
	e.used, e.val = j.used, j.val
}

// fits reports whether moving VNF f onto node n keeps every resource
// dimension within capacity. VNFs with nodeOf < 0 (mid-repair) are ignored.
func (c *compiled) fits(cand *candidate, f, n int) bool {
	load := c.demand[f]
	for g, ng := range cand.nodeOf {
		if ng == n && g != f {
			load += c.demand[g]
		}
	}
	if load > c.cap[n]+capEps {
		return false
	}
	for d := 0; d < c.dims; d++ {
		l := c.vnfExtras[f][d]
		for g, ng := range cand.nodeOf {
			if ng == n && g != f {
				l += c.vnfExtras[g][d]
			}
		}
		if l > c.nodeExtras[n][d]+capEps {
			return false
		}
	}
	return true
}

// seedCandidate builds the deterministic starting point every metaheuristic
// shares: the BFD placement (a BFDSU placement at seed when BFD dead-ends)
// plus the RCKK schedule.
func (c *compiled) seedCandidate(seed uint64) (*candidate, error) {
	cand := c.newCandidate()
	if bfd := c.bfdPlacement(); bfd != nil {
		copy(cand.nodeOf, bfd)
	} else {
		res, err := (&placement.BFDSU{Seed: seed}).Place(c.p)
		if err != nil {
			return nil, fmt.Errorf("portfolio: no feasible initial placement: %w", err)
		}
		if err := c.fromPlacement(res.Placement, cand.nodeOf); err != nil {
			return nil, err
		}
	}
	rows, err := c.rckkSchedule()
	if err != nil {
		return nil, fmt.Errorf("portfolio: initial schedule: %w", err)
	}
	copyRows(cand.assign, rows)
	return cand, nil
}

// polish tightens cand in place with the repo's existing local searches —
// placement.Improve node evacuation and per-VNF scheduling.ImproveInPlace —
// and returns the resulting objective. This is the portfolio's large
// neighborhood move; it reuses the two Improve passes rather than
// duplicating their move logic.
func (c *compiled) polish(ev *evaluator, cand *candidate) float64 {
	pl := c.toPlacement(cand)
	if better, err := placement.Improve(c.p, pl, 0); err == nil {
		c.applyPlacement(better, cand)
	}
	for _, f := range c.movable {
		scheduling.ImproveInPlace(c.items[f], cand.assign[f], c.inst[f], 0)
	}
	return ev.value(cand)
}

// tracker keeps a solver's best-so-far candidate in index space and
// forwards each strict improvement to the report callback as a monotone
// incumbent stream.
type tracker struct {
	c      *compiled
	name   string
	start  time.Time
	report func(Incumbent)
	best   float64
	cand   *candidate
	count  int
}

func newTracker(c *compiled, name string, report func(Incumbent)) *tracker {
	return &tracker{c: c, name: name, start: time.Now(), report: report}
}

// offer records cand when it strictly improves on the tracker's best and
// reports it; returns whether it was an improvement.
func (t *tracker) offer(cand *candidate, obj float64, iter int) bool {
	if t.cand != nil && obj >= t.best-improveEps {
		return false
	}
	t.best = obj
	if t.cand == nil {
		t.cand = t.c.cloneCandidate(cand)
	} else {
		t.cand.copyFrom(cand)
	}
	t.count++
	if t.report != nil {
		t.report(Incumbent{
			Solver:    t.name,
			Objective: obj,
			Iteration: iter,
			Elapsed:   time.Since(t.start),
			At:        time.Now(),
		})
	}
	return true
}

// solution finalizes the tracker into the solver's answer, the one place
// the best candidate is materialized in model space.
func (t *tracker) solution(iters int) (*Solution, error) {
	if t.cand == nil {
		return nil, errors.New("portfolio: no incumbent found before cancellation")
	}
	return &Solution{
		Solver:     t.name,
		Objective:  t.best,
		Iterations: iters,
		Incumbents: t.count,
		Placement:  t.c.toPlacement(t.cand),
		Schedule:   t.c.toSchedule(t.cand),
	}, nil
}
