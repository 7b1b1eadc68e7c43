package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"nfvchain/internal/cluster"
	"nfvchain/internal/core"
	"nfvchain/internal/model"
	"nfvchain/internal/placement"
	"nfvchain/internal/portfolio"
	"nfvchain/internal/rng"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/service"
	"nfvchain/internal/simulate"
	"nfvchain/internal/workload"
)

// Input shapes shared by the workloads (paper §V-A scale).
const (
	// loadFactor scales VNF demand to this share of total node capacity, as
	// nfvsim -demo and the placement figures do.
	loadFactor = 0.6
	// linkDelay is the per-hop latency L of Eq. 16 on every solve.
	linkDelay = 0.001
)

// load is one benchmark workload: its inputs, how a user runs a job, how
// the served output is checked, and the traced replay of a job through the
// layers' public functions.
type load interface {
	// generate builds every input from the workload seed.
	generate(seed uint64) error
	// run executes job i as a user makes it. Negative i selects warm-up
	// inputs, which never repeat a measured one. c is nil for library
	// workloads.
	run(ctx context.Context, c *client, i int, tr *tracer, root int, rec *jobRecord) error
	// verify recomputes job i with the direct library call, compares it with
	// the served output digest in rec, and returns the quality of the
	// solutions the job used.
	verify(ctx context.Context, i int, rec *jobRecord) (quality, error)
	// replay runs job i's input through the layers' public functions in the
	// order the server calls them, with a span around each call when tr is
	// non-nil.
	replay(ctx context.Context, i int, tr *tracer) (replayStats, error)
}

// jobRecord is what the benchmark keeps about one measured job.
type jobRecord struct {
	latency   time.Duration // wall clock
	cpu       time.Duration // CPU time of the process during the job
	err       error
	digest    [32]byte // SHA-256 of the served document (or result fingerprint)
	size      int      // bytes of the served document
	polls     int
	generated int // simulated packets
	// Client-side phases of an HTTP job.
	submit, wait, result time.Duration
}

// replayStats are the counts one replayed job produced.
type replayStats struct {
	digest         [32]byte
	solutions      int
	placementIters int
	rejectionRate  float64 // summed over solutions
	generated      int
	wanHops        int
	routedLocal    int
	solverIters    map[string]int
}

func (s *replayStats) add(o replayStats) {
	s.solutions += o.solutions
	s.placementIters += o.placementIters
	s.rejectionRate += o.rejectionRate
	s.generated += o.generated
	s.wanHops += o.wanHops
	s.routedLocal += o.routedLocal
	for k, v := range o.solverIters {
		if s.solverIters == nil {
			s.solverIters = map[string]int{}
		}
		s.solverIters[k] += v
	}
}

// quality sums the deterministic quality guards over served solutions.
type quality struct {
	solutions int
	nodes     float64 // nodes in service (Eq. 14)
	objective float64 // the race objective: DefaultObjective weights on nodes and mean Eq. 16 latency
}

func (q *quality) add(o quality) {
	q.solutions += o.solutions
	q.nodes += o.nodes
	q.objective += o.objective
}

// qualityOf evaluates one solution analytically.
func qualityOf(sol *core.Solution) (quality, error) {
	ev, err := core.Evaluate(sol)
	if err != nil {
		return quality{}, err
	}
	obj := portfolio.DefaultObjective()
	nodes := float64(ev.NodesInService)
	return quality{
		solutions: 1,
		nodes:     nodes,
		objective: obj.NodeWeight*nodes + obj.LatencyWeight*ev.MeanRequestLatency(),
	}, nil
}

func digestOf(b []byte) [32]byte { return sha256.Sum256(b) }

// mod is i mod n for any sign of i.
func mod(i, n int) int { return ((i % n) + n) % n }

// paperProblem generates a §V-A instance (15 VNFs, 10 nodes, chains of up
// to 6 VNFs) with the given request count, demand scaled to loadFactor of
// capacity.
func paperProblem(seed uint64, requests int) (*model.Problem, error) {
	cfg := workload.DefaultConfig()
	cfg.Seed = seed
	cfg.NumRequests = requests
	p, err := workload.Generate(cfg)
	if err != nil {
		return nil, err
	}
	scale := loadFactor * p.TotalCapacity() / p.TotalDemand()
	for i := range p.VNFs {
		p.VNFs[i].Demand *= scale
	}
	return p, nil
}

// decodeStrict decodes a request body the way nfvd does.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

// optimizeTraced mirrors core.Optimize with the default BFDSU placer and
// RCKK scheduler, one span per layer call.
func optimizeTraced(tr *tracer, parent, job int, p *model.Problem, opts core.Options) (*core.Solution, replayStats, error) {
	var st replayStats
	if err := tr.timed("model.validate", parent, job, p.Validate); err != nil {
		return nil, st, err
	}
	var placed *placement.Result
	err := tr.timed("placement.bfdsu", parent, job, func() (err error) {
		placed, err = (&placement.BFDSU{Seed: opts.Seed}).Place(p)
		return err
	})
	if err != nil {
		return nil, st, err
	}
	var sched *model.Schedule
	err = tr.timed("scheduling.rckk", parent, job, func() (err error) {
		sched, err = scheduling.ScheduleAll(p, scheduling.RCKK{})
		return err
	})
	if err != nil {
		return nil, st, err
	}
	var adm *scheduling.AdmissionResult
	err = tr.timed("scheduling.admission", parent, job, func() (err error) {
		adm, err = scheduling.ApplyAdmissionControl(p, sched)
		return err
	})
	if err != nil {
		return nil, st, err
	}
	st.solutions = 1
	st.placementIters = placed.Iterations
	st.rejectionRate = adm.RejectionRate
	return &core.Solution{
		Problem:             p,
		Placement:           placed.Placement,
		PlacementIterations: placed.Iterations,
		Schedule:            adm.Admitted,
		Rejected:            adm.Rejected,
		RejectionRate:       adm.RejectionRate,
		LinkDelay:           opts.LinkDelay,
	}, st, nil
}

// encodeAndDecode renders a served Solution document and decodes it as the
// client does, one span each; it returns the document's digest and the
// decoded solution.
func encodeAndDecode(tr *tracer, parent, job int, sol *core.Solution) ([32]byte, *core.Solution, error) {
	var buf bytes.Buffer
	if err := tr.timed("core.solution_encode", parent, job, func() error { return sol.WriteJSON(&buf) }); err != nil {
		return [32]byte{}, nil, err
	}
	var dec *core.Solution
	err := tr.timed("core.solution_decode", parent, job, func() (err error) {
		dec, err = core.ReadSolutionJSON(bytes.NewReader(buf.Bytes()))
		return err
	})
	return digestOf(buf.Bytes()), dec, err
}

// expected memoizes the direct library result of each distinct input.
type expected[K comparable] struct {
	mu   sync.Mutex
	byIn map[K]verdict
}

type verdict struct {
	digest [32]byte
	q      quality
	err    error
}

func (e *expected[K]) get(k K, compute func() ([]byte, *core.Solution, error)) verdict {
	e.mu.Lock()
	v, ok := e.byIn[k]
	e.mu.Unlock()
	if ok {
		return v
	}
	doc, sol, err := compute()
	if err == nil {
		v.digest = digestOf(doc)
		v.q, err = qualityOf(sol)
	}
	v.err = err
	e.mu.Lock()
	if e.byIn == nil {
		e.byIn = map[K]verdict{}
	}
	e.byIn[k] = v
	e.mu.Unlock()
	return v
}

// check compares a served digest with the direct call's verdict.
func (v verdict) check(rec *jobRecord, call string) (quality, error) {
	if v.err != nil {
		return quality{}, fmt.Errorf("direct %s: %w", call, v.err)
	}
	if rec.digest != v.digest {
		return quality{}, fmt.Errorf("served document differs from direct %s", call)
	}
	return v.q, nil
}

// solutionDoc renders a Solution document as nfvd serves it.
func solutionDoc(sol *core.Solution) ([]byte, error) {
	var buf bytes.Buffer
	err := sol.WriteJSON(&buf)
	return buf.Bytes(), err
}

// decodeSolution decodes a served Solution document as the client does.
func decodeSolution(data []byte) error {
	_, err := core.ReadSolutionJSON(bytes.NewReader(data))
	return err
}

// ---- solve ----------------------------------------------------------------

// solveLoad is the classic POST /v1/solve on paper-scale problems. Every
// fourth submission repeats an earlier body byte for byte; the others are
// new, sized 200/500/1000/500 requests in turn so every run has the same
// mix and the median falls inside the 500-request mode.
type solveLoad struct {
	pools [][][]byte // compact problem JSON, by size then pool entry
	plan  []solveKey // job i's input is plan[i mod len]
	want  expected[solveKey]
}

type solveKey struct {
	size, problem int
	seed          uint64
}

const (
	solvePerSize = 8
	solvePlanLen = 1 << 17
	// A repeat copies a new job 5 to 33 jobs back: most likely finished,
	// and still in the 256-entry result cache.
	repeatSpan = 8
)

var (
	solveSizes = []int{200, 500, 1000}
	solveMix   = []int{0, 1, 2, 1} // indexes into solveSizes, cycled over new jobs
)

func (l *solveLoad) generate(seed uint64) error {
	l.pools = make([][][]byte, len(solveSizes))
	for k, n := range solveSizes {
		for j := 0; j < solvePerSize; j++ {
			p, err := paperProblem(seed*64+uint64(k*solvePerSize+j), n)
			if err != nil {
				return err
			}
			b, err := json.Marshal(p)
			if err != nil {
				return err
			}
			l.pools[k] = append(l.pools[k], b)
		}
	}
	s := rng.Derive(seed, "perfbench/solve/plan")
	l.plan = make([]solveKey, solvePlanLen)
	fresh := 0
	for i := range l.plan {
		if i%4 == 3 && i > 4*repeatSpan {
			l.plan[i] = l.plan[i-1-4*(1+s.IntN(repeatSpan))]
			continue
		}
		size := solveMix[fresh%len(solveMix)]
		fresh++
		l.plan[i] = solveKey{size: size, problem: s.IntN(solvePerSize), seed: uint64(i) + 1}
	}
	return nil
}

func (l *solveLoad) key(i int) solveKey {
	if i < 0 {
		return solveKey{size: solveMix[mod(i, len(solveMix))], problem: mod(i, solvePerSize), seed: 1<<40 + uint64(-i)}
	}
	return l.plan[i%len(l.plan)]
}

func (l *solveLoad) body(k solveKey) [][]byte {
	return [][]byte{
		[]byte(`{"problem":`), l.pools[k.size][k.problem],
		[]byte(fmt.Sprintf(`,"options":{"linkDelay":%v,"seed":%d}}`, linkDelay, k.seed)),
	}
}

func (l *solveLoad) run(ctx context.Context, c *client, i int, tr *tracer, root int, rec *jobRecord) error {
	return c.roundTrip(ctx, "/v1/solve", l.body(l.key(i)), decodeSolution, tr, root, i, rec)
}

func (l *solveLoad) verify(_ context.Context, i int, rec *jobRecord) (quality, error) {
	k := l.key(i)
	return l.want.get(k, func() ([]byte, *core.Solution, error) {
		var req service.SolveRequest
		if err := decodeStrict(bytes.Join(l.body(k), nil), &req); err != nil {
			return nil, nil, err
		}
		sol, err := core.Optimize(req.Problem, core.Options{Seed: req.Options.Seed, LinkDelay: req.Options.LinkDelay})
		if err != nil {
			return nil, nil, err
		}
		doc, err := solutionDoc(sol)
		return doc, sol, err
	}).check(rec, "core.Optimize")
}

func (l *solveLoad) replay(_ context.Context, i int, tr *tracer) (replayStats, error) {
	body := bytes.Join(l.body(l.key(i)), nil)
	root := tr.begin("job", -1, i)
	var req service.SolveRequest
	err := tr.timed("model.problem_decode", root, i, func() error {
		if err := decodeStrict(body, &req); err != nil {
			return err
		}
		return req.Problem.Validate()
	})
	if err != nil {
		return replayStats{}, err
	}
	sol, st, err := optimizeTraced(tr, root, i, req.Problem, core.Options{Seed: req.Options.Seed, LinkDelay: req.Options.LinkDelay})
	if err != nil {
		return st, err
	}
	digest, dec, err := encodeAndDecode(tr, root, i, sol)
	tr.end(root)
	if err != nil {
		return st, err
	}
	st.digest = digest
	return st, tr.timed("core.evaluate", -1, i, func() error {
		_, err := core.Evaluate(dec)
		return err
	})
}

// ---- race -----------------------------------------------------------------

// raceLoad is the anytime POST /v1/solve with the explicit default
// portfolio at its default iteration budgets and no deadline, so the winner
// is deterministic.
type raceLoad struct {
	encoded [][]byte // full request bodies, one per pool entry
	want    expected[int]
}

const (
	racePool     = 32
	raceRequests = 200
)

func (l *raceLoad) generate(seed uint64) error {
	lineup, err := json.Marshal(portfolio.DefaultPortfolio())
	if err != nil {
		return err
	}
	l.encoded = l.encoded[:0]
	for j := 0; j < racePool; j++ {
		p, err := paperProblem(seed*64+uint64(j), raceRequests)
		if err != nil {
			return err
		}
		b, err := json.Marshal(p)
		if err != nil {
			return err
		}
		body := fmt.Sprintf(`{"problem":%s,"options":{"linkDelay":%v,"seed":%d},"portfolio":%s}`, b, linkDelay, j+1, lineup)
		l.encoded = append(l.encoded, []byte(body))
	}
	return nil
}

func (l *raceLoad) body(i int) []byte { return l.encoded[mod(i, len(l.encoded))] }

func (l *raceLoad) run(ctx context.Context, c *client, i int, tr *tracer, root int, rec *jobRecord) error {
	return c.roundTrip(ctx, "/v1/solve", [][]byte{l.body(i)}, decodeSolution, tr, root, i, rec)
}

func (l *raceLoad) verify(ctx context.Context, i int, rec *jobRecord) (quality, error) {
	return l.want.get(mod(i, len(l.encoded)), func() ([]byte, *core.Solution, error) {
		var req service.SolveRequest
		if err := decodeStrict(l.body(i), &req); err != nil {
			return nil, nil, err
		}
		sol, _, err := core.SolveRace(ctx, req.Problem, core.RaceOptions{
			Portfolio: req.Portfolio,
			Seed:      req.Options.Seed,
			LinkDelay: req.Options.LinkDelay,
		})
		if err != nil {
			return nil, nil, err
		}
		doc, err := solutionDoc(sol)
		return doc, sol, err
	}).check(rec, "core.SolveRace")
}

// raceSeed mirrors the per-solver seed derivation of portfolio.Race.
func raceSeed(seed uint64, i int) uint64 { return seed + uint64(i)*0x9e3779b97f4a7c15 }

func (l *raceLoad) replay(ctx context.Context, i int, tr *tracer) (replayStats, error) {
	st := replayStats{solverIters: map[string]int{}}
	root := tr.begin("job", -1, i)
	var req service.SolveRequest
	err := tr.timed("model.problem_decode", root, i, func() error {
		if err := decodeStrict(l.body(i), &req); err != nil {
			return err
		}
		return req.Problem.Validate()
	})
	if err != nil {
		return st, err
	}
	specs, err := portfolio.ParseSpecs(req.Portfolio)
	if err != nil {
		return st, err
	}
	obj := portfolio.DefaultObjective()
	if req.Options.LinkDelay > 0 {
		obj.LinkDelay = req.Options.LinkDelay
	}
	// Each solver runs alone; the winner is chosen as Race chooses it.
	var best *portfolio.Solution
	for idx, sp := range specs {
		solver, err := sp.Build(obj, raceSeed(req.Options.Seed, idx))
		if err != nil {
			return st, err
		}
		var sol *portfolio.Solution
		_ = tr.timed("portfolio."+sp.Name, root, i, func() (err error) {
			sol, err = solver.Solve(ctx, req.Problem, nil)
			return err // a failed solver drops out of the race, as in Race
		})
		if sol == nil {
			continue
		}
		st.solverIters[sp.Name] += sol.Iterations
		if best == nil || sol.Objective < best.Objective {
			best = sol
		}
	}
	if best == nil {
		return st, fmt.Errorf("every solver failed")
	}
	var adm *scheduling.AdmissionResult
	err = tr.timed("scheduling.admission", root, i, func() (err error) {
		adm, err = scheduling.ApplyAdmissionControl(req.Problem, best.Schedule)
		return err
	})
	if err != nil {
		return st, err
	}
	sol := &core.Solution{
		Problem:             req.Problem,
		Placement:           best.Placement,
		PlacementIterations: best.Iterations,
		Schedule:            adm.Admitted,
		Rejected:            adm.Rejected,
		RejectionRate:       adm.RejectionRate,
		LinkDelay:           req.Options.LinkDelay,
	}
	st.solutions = 1
	st.rejectionRate = adm.RejectionRate
	digest, dec, err := encodeAndDecode(tr, root, i, sol)
	tr.end(root)
	if err != nil {
		return st, err
	}
	st.digest = digest
	return st, tr.timed("core.evaluate", -1, i, func() error {
		_, err := core.Evaluate(dec)
		return err
	})
}

// ---- simulate -------------------------------------------------------------

// simulateLoad posts pre-solved Solution documents to POST /v1/simulate;
// every job has its own seed, and every other job adds a fault plan with
// retransmit drop and failure policies behind a finite buffer.
type simulateLoad struct {
	docs      [][]byte  // pre-solved Solution documents
	quality   []quality // of each document's solution
	seed      uint64
	sims      sync.Pool // *simulate.Simulator for verification
	replaySim *simulate.Simulator
}

const (
	// simulatePool is large so every seed draws nearly the same mix of
	// simulation costs: with 24 documents the median moved with the seed.
	simulatePool     = 96
	simulateRequests = 200
	simulateHorizon  = 4.0
	simulateWarmup   = 0.5
)

func (l *simulateLoad) generate(seed uint64) error {
	l.seed = seed
	l.docs, l.quality = l.docs[:0], l.quality[:0]
	for j := 0; j < simulatePool; j++ {
		p, err := paperProblem(seed*64+uint64(j), simulateRequests)
		if err != nil {
			return err
		}
		sol, err := core.Optimize(p, core.Options{Seed: uint64(j) + 1, LinkDelay: linkDelay})
		if err != nil {
			return err
		}
		doc, err := solutionDoc(sol)
		if err != nil {
			return err
		}
		q, err := qualityOf(sol)
		if err != nil {
			return err
		}
		l.docs = append(l.docs, doc)
		l.quality = append(l.quality, q)
	}
	l.sims.New = func() any { return simulate.NewSimulator() }
	l.replaySim = simulate.NewSimulator()
	return nil
}

// doc returns job i's posted document: each is used twice in a row, once
// without and once with faults.
func (l *simulateLoad) doc(i int) int { return mod(i, 2*len(l.docs)) / 2 }

// options returns job i's simulation options; the seed is unique per job.
func (l *simulateLoad) options(i int) service.SimOptions {
	o := service.SimOptions{
		Horizon: simulateHorizon,
		Warmup:  simulateWarmup,
		Seed:    l.seed<<32 + uint64(int64(i)),
	}
	if mod(i, 2) == 1 {
		o.BufferSize = 64
		o.DropPolicy = "retransmit"
		o.RetransmitDelay = 0.01
		o.FaultPlan = &simulate.FaultPlan{MTBF: 3, MTTR: 0.03}
		o.FailurePolicy = "retransmit"
	}
	return o
}

func (l *simulateLoad) body(i int) ([][]byte, error) {
	sim, err := json.Marshal(l.options(i))
	if err != nil {
		return nil, err
	}
	return [][]byte{[]byte(`{"solution":`), l.docs[l.doc(i)], []byte(`,"sim":`), sim, []byte(`}`)}, nil
}

// simConfigOf resolves the wire options this workload sends, as nfvd does.
func simConfigOf(o service.SimOptions) core.SimulationConfig {
	cfg := core.SimulationConfig{
		Horizon:         o.Horizon,
		Warmup:          o.Warmup,
		BufferSize:      o.BufferSize,
		RetransmitDelay: o.RetransmitDelay,
		Seed:            o.Seed,
		FaultPlan:       o.FaultPlan,
	}
	if o.DropPolicy == "retransmit" {
		cfg.DropPolicy = simulate.DropRetransmit
	}
	if o.FailurePolicy == "retransmit" {
		cfg.FailurePolicy = simulate.FailRetransmit
	}
	return cfg
}

// simulateConfig mirrors core's wiring of a solution into the simulator.
func simulateConfig(sol *core.Solution, cfg core.SimulationConfig) simulate.Config {
	return simulate.Config{
		Problem:         sol.Problem,
		Schedule:        sol.Schedule,
		Placement:       sol.Placement,
		LinkDelay:       sol.LinkDelay,
		Horizon:         cfg.Horizon,
		Warmup:          cfg.Warmup,
		BufferSize:      cfg.BufferSize,
		DropPolicy:      cfg.DropPolicy,
		RetransmitDelay: cfg.RetransmitDelay,
		Seed:            cfg.Seed,
		FaultPlan:       cfg.FaultPlan,
		FailurePolicy:   cfg.FailurePolicy,
	}
}

// conserved checks the packet-conservation ledger of one simulation.
func conserved(r *simulate.Results, drop simulate.DropPolicy) error {
	discarded := 0
	if drop == simulate.DropDiscard {
		discarded = r.Dropped
	}
	if got := r.Delivered + r.InFlight + discarded + r.FailureDrops + r.Shed; got != r.Generated {
		return fmt.Errorf("conservation ledger broken: generated %d != delivered %d + in flight %d + discarded %d + failure drops %d + shed %d",
			r.Generated, r.Delivered, r.InFlight, discarded, r.FailureDrops, r.Shed)
	}
	return nil
}

func (l *simulateLoad) run(ctx context.Context, c *client, i int, tr *tracer, root int, rec *jobRecord) error {
	body, err := l.body(i)
	if err != nil {
		return err
	}
	drop := simConfigOf(l.options(i)).DropPolicy
	return c.roundTrip(ctx, "/v1/simulate", body, func(data []byte) error {
		res, err := simulate.ReadResultsJSON(bytes.NewReader(data))
		if err != nil {
			return err
		}
		rec.generated = res.Generated
		return conserved(res, drop)
	}, tr, root, i, rec)
}

func (l *simulateLoad) verify(ctx context.Context, i int, rec *jobRecord) (quality, error) {
	body, err := l.body(i)
	if err != nil {
		return quality{}, err
	}
	var req service.SimulateRequest
	if err := decodeStrict(bytes.Join(body, nil), &req); err != nil {
		return quality{}, err
	}
	sol, err := core.ReadSolutionJSON(bytes.NewReader(req.Solution))
	if err != nil {
		return quality{}, err
	}
	sim := l.sims.Get().(*simulate.Simulator)
	defer l.sims.Put(sim)
	res, err := core.SimulateWith(ctx, sim, sol, simConfigOf(req.Sim))
	if err != nil {
		return quality{}, fmt.Errorf("direct core.SimulateWith: %w", err)
	}
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		return quality{}, err
	}
	if digestOf(buf.Bytes()) != rec.digest {
		return quality{}, fmt.Errorf("served document differs from direct core.SimulateWith")
	}
	return l.quality[l.doc(i)], nil
}

func (l *simulateLoad) replay(ctx context.Context, i int, tr *tracer) (replayStats, error) {
	var st replayStats
	parts, err := l.body(i)
	if err != nil {
		return st, err
	}
	body := bytes.Join(parts, nil)
	root := tr.begin("job", -1, i)
	defer tr.end(root)
	var (
		req service.SimulateRequest
		sol *core.Solution
	)
	err = tr.timed("core.solution_decode", root, i, func() error {
		if err := decodeStrict(body, &req); err != nil {
			return err
		}
		sol, err = core.ReadSolutionJSON(bytes.NewReader(req.Solution))
		return err
	})
	if err != nil {
		return st, err
	}
	cfg := simConfigOf(req.Sim)
	sim := l.replaySim
	if err := tr.timed("simulate.reset", root, i, func() error { return sim.Reset(simulateConfig(sol, cfg)) }); err != nil {
		return st, err
	}
	var res *simulate.Results
	err = tr.timed("simulate.run", root, i, func() (err error) {
		res, err = sim.RunContext(ctx)
		return err
	})
	if err != nil {
		return st, err
	}
	var buf bytes.Buffer
	if err := tr.timed("simulate.results_encode", root, i, func() error { return res.WriteJSON(&buf) }); err != nil {
		return st, err
	}
	st.generated = res.Generated
	st.digest = digestOf(buf.Bytes())
	return st, tr.timed("simulate.results_decode", root, i, func() error {
		_, err := simulate.ReadResultsJSON(bytes.NewReader(buf.Bytes()))
		return err
	})
}

// ---- cluster --------------------------------------------------------------

// clusterLoad is the library multi-datacenter path (nfvsim -datacenters):
// core.OptimizeCluster then core.SimulateCluster over 8 regions.
type clusterLoad struct {
	bases []*model.Problem
	seed  uint64
}

const (
	// clusterPool is large for the same reason as simulatePool.
	clusterPool     = 64
	clusterRequests = 1000
	clusterRegions  = 8
	clusterGlobal   = 0.1
	clusterWAN      = 0.005
	clusterHorizon  = 1.0
	clusterWarmup   = 0.1
)

func (l *clusterLoad) generate(seed uint64) error {
	l.seed = seed
	l.bases = l.bases[:0]
	for j := 0; j < clusterPool; j++ {
		p, err := paperProblem(seed*64+uint64(j), clusterRequests)
		if err != nil {
			return err
		}
		l.bases = append(l.bases, p)
	}
	return nil
}

// input returns job i's base problem and its unique seed.
func (l *clusterLoad) input(i int) (*model.Problem, uint64) {
	return l.bases[mod(i, len(l.bases))], l.seed<<32 + uint64(int64(i))*clusterRegions
}

func (l *clusterLoad) options(seed uint64) core.ClusterOptions {
	return core.ClusterOptions{
		Datacenters:    clusterRegions,
		GlobalFraction: clusterGlobal,
		Options:        core.Options{Seed: seed, LinkDelay: linkDelay},
	}
}

func (l *clusterLoad) simConfig(seed uint64, workers int) core.ClusterSimConfig {
	return core.ClusterSimConfig{
		Sim:        core.SimulationConfig{Horizon: clusterHorizon, Warmup: clusterWarmup, Seed: seed},
		WANLatency: clusterWAN,
		Router:     cluster.LeastLoaded{},
		Seed:       seed,
		Workers:    workers,
	}
}

// clusterDigest fingerprints a cluster run's totals and latency summary.
func clusterDigest(r *cluster.Results) [32]byte {
	return digestOf([]byte(fmt.Sprintf("%d %d %d %d %d %d %d %d %d %d %x",
		r.Generated, r.Delivered, r.InFlight, r.Dropped, r.Retransmissions,
		r.WANHops, r.RoutedLocal, r.Rejected, r.Truncated, r.Latency.N(), math.Float64bits(r.Latency.Mean()))))
}

// clusterConserved checks every region's ledger and the cluster sums.
func clusterConserved(r *cluster.Results) error {
	var gen, del, infl int
	for _, dc := range r.Datacenters {
		if err := conserved(dc.Results, simulate.DropDiscard); err != nil {
			return fmt.Errorf("%s: %w", dc.Name, err)
		}
		gen += dc.Results.Generated
		del += dc.Results.Delivered
		infl += dc.Results.InFlight
	}
	if gen != r.Generated || del != r.Delivered || infl != r.InFlight {
		return fmt.Errorf("cluster totals (%d/%d/%d) differ from the regions' sums (%d/%d/%d)",
			r.Generated, r.Delivered, r.InFlight, gen, del, infl)
	}
	return nil
}

func (l *clusterLoad) solveAndSimulate(ctx context.Context, i, workers int, tr *tracer, root int) (*core.ClusterSolution, *cluster.Results, error) {
	base, seed := l.input(i)
	var cs *core.ClusterSolution
	err := tr.timed("core.optimize_cluster", root, i, func() (err error) {
		cs, err = core.OptimizeCluster(base, l.options(seed))
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	var res *cluster.Results
	err = tr.timed("core.simulate_cluster", root, i, func() (err error) {
		res, err = core.SimulateClusterContext(ctx, cs, l.simConfig(seed, workers))
		return err
	})
	return cs, res, err
}

func (l *clusterLoad) run(ctx context.Context, _ *client, i int, tr *tracer, root int, rec *jobRecord) error {
	_, res, err := l.solveAndSimulate(ctx, i, benchWorkers, tr, root)
	if err != nil {
		return err
	}
	rec.generated = res.Generated
	rec.digest = clusterDigest(res)
	return clusterConserved(res)
}

// verify reruns the job on the event-interleaved sequential driver
// (Workers 0), which must be bit-identical to the windowed run.
func (l *clusterLoad) verify(ctx context.Context, i int, rec *jobRecord) (quality, error) {
	cs, res, err := l.solveAndSimulate(ctx, i, 0, nil, -1)
	if err != nil {
		return quality{}, fmt.Errorf("direct cluster run: %w", err)
	}
	if clusterDigest(res) != rec.digest {
		return quality{}, fmt.Errorf("cluster run differs from the sequential direct run")
	}
	var q quality
	for _, sol := range cs.Regions {
		rq, err := qualityOf(sol)
		if err != nil {
			return quality{}, err
		}
		q.add(rq)
	}
	return q, nil
}

func (l *clusterLoad) replay(ctx context.Context, i int, tr *tracer) (replayStats, error) {
	var st replayStats
	base, seed := l.input(i)
	opts := l.options(seed)
	root := tr.begin("job", -1, i)
	defer tr.end(root)

	opt := tr.begin("cluster.optimize", root, i)
	var (
		problems []*model.Problem
		globals  []cluster.GlobalRequest
	)
	err := tr.timed("core.partition", opt, i, func() (err error) {
		problems, globals, err = core.PartitionRegions(base, opts.Datacenters, opts.GlobalFraction)
		return err
	})
	if err != nil {
		return st, err
	}
	regions := make([]*core.Solution, len(problems))
	for d, p := range problems {
		ro := opts.Options
		ro.Seed = opts.Options.Seed + uint64(d)
		sol, rs, err := optimizeTraced(tr, opt, i, p, ro)
		if err != nil {
			return st, err
		}
		st.add(rs)
		regions[d] = sol
	}
	tr.end(opt)

	// Mirror core.SimulateCluster's wiring of the regions.
	simCfg := l.simConfig(seed, benchWorkers)
	ccfg := cluster.Config{
		WANLatency: simCfg.WANLatency,
		Router:     simCfg.Router,
		Global:     globals,
		Seed:       simCfg.Seed,
		Workers:    simCfg.Workers,
	}
	for d, sol := range regions {
		regionSim := simCfg.Sim
		regionSim.Seed = simCfg.Sim.Seed + uint64(d)
		ccfg.Datacenters = append(ccfg.Datacenters, cluster.Datacenter{
			Name: fmt.Sprintf("region%d", d),
			Sim:  simulateConfig(sol, regionSim),
		})
	}
	var c *cluster.ClusterSimulator
	err = tr.timed("simulate.reset", root, i, func() (err error) {
		c, err = cluster.New(ccfg)
		return err
	})
	if err != nil {
		return st, err
	}
	var res *cluster.Results
	err = tr.timed("cluster.run", root, i, func() (err error) {
		res, err = c.RunContext(ctx)
		return err
	})
	if err != nil {
		return st, err
	}
	st.generated = res.Generated
	st.wanHops = res.WANHops
	st.routedLocal = res.RoutedLocal
	st.digest = clusterDigest(res)
	return st, nil
}
