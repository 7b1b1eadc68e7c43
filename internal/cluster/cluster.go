// Package cluster composes datacenter-level discrete-event simulators into
// one region-scale simulation under a single global clock — the multi-cloud
// SFC setting: N datacenters, each with its own placement and schedule, plus
// global service-chain requests whose arrivals are routed across datacenters
// by a pluggable policy and pay a WAN entry hop when served away from home.
//
// The composition is built on the Simulator stepping primitives
// (PeekNextEventTime / ProcessNextEvent / Inject): the ClusterSimulator
// repeatedly advances whichever datacenter holds the globally earliest
// pending event, interleaving cluster-level arrival injections in exact
// timestamp order. Each datacenter therefore executes the identical event
// sequence it would standalone given the same injections — with one
// datacenter and no global traffic the composition is bit-identical to a
// plain simulate.Run (the equivalence golden pins this).
//
// WAN latency is modeled on entry: a packet routed off-home arrives at the
// serving datacenter WANLatency seconds after its birth, and its measured
// end-to-end latency includes that hop (chains then run entirely within the
// serving datacenter — inter-stage WAN crossings are out of scope here and
// tracked by the ROADMAP).
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
	"nfvchain/internal/simulate"
	"nfvchain/internal/stats"
)

// Datacenter is one member simulation of the cluster.
type Datacenter struct {
	// Name labels the datacenter in results (defaults to "dc<i>").
	Name string
	// Sim is the datacenter's full simulation config: its own problem,
	// placement, schedule, seed and local traffic. All datacenters must
	// share one Horizon and Warmup. Requests listed in Config.Global are
	// automatically marked InjectOnly — the cluster supplies their
	// arrivals — but must be present in the problem and schedule of every
	// datacenter that may serve them.
	Sim simulate.Config
}

// Config parameterizes one cluster run.
type Config struct {
	Datacenters []Datacenter
	// WANLatency is the one-way inter-datacenter latency (seconds) charged
	// to a global packet served away from its home region.
	WANLatency float64
	// Router picks the serving datacenter per global arrival; nil means
	// LocalityFirst.
	Router Router
	// Global lists the cluster-level flows routed across datacenters.
	Global []GlobalRequest
	// Seed drives the cluster-level arrival streams (derived per request;
	// independent of every datacenter seed).
	Seed uint64
	// Workers selects the cluster execution driver. 0 (the default) keeps
	// the event-interleaved sequential driver: one global event at a time in
	// exact (time, seq) order. Workers >= 1 switches to the conservative-
	// window driver: datacenters only interact at global arrival instants,
	// so between consecutive arrivals each datacenter drains its own agenda
	// to the barrier in one batch (simulate.Simulator.DrainUntil) — inline
	// when Workers == 1, fanned out across min(Workers, N) goroutines when a
	// window carries enough events to pay for the handoff. Results are
	// bit-identical across every Workers value, so this is purely a
	// performance knob. The windowed driver assumes routing
	// policies read DCState.Pending only for datacenters with CanServe —
	// every built-in policy does — because datacenters no global flow can
	// reach are drained ahead of the barrier.
	Workers int
}

// DCResults pairs a datacenter's name with its standalone measurements.
type DCResults struct {
	Name    string
	Results *simulate.Results
}

// Results aggregates one cluster run.
type Results struct {
	Horizon float64
	// Router is the routing policy's name.
	Router string

	// Datacenters holds each member's full standalone Results (aliasing the
	// member simulator's buffers; valid until the ClusterSimulator is
	// garbage collected — cluster simulators are single-use).
	Datacenters []DCResults

	// Cluster-wide sums over all datacenters.
	Generated       int
	Delivered       int
	Retransmissions int
	Dropped         int
	InFlight        int
	// Latency merges every datacenter's delivered-latency summary; WAN
	// entry hops are included (the packet's birth predates its arrival).
	Latency      stats.Summary
	Availability float64

	// WANHops counts global packets that paid the WAN entry hop (served
	// away from home); RoutedLocal counts those served at home.
	WANHops     int
	RoutedLocal int
	// RoutedByDC counts global packets injected into each datacenter.
	RoutedByDC []int
	// Rejected counts global arrivals no datacenter could serve (the
	// router returned -1).
	Rejected int
	// Truncated counts global arrivals routed so close to the horizon that
	// the WAN hop pushed their entry past it (never admitted).
	Truncated int
}

// ClusterSimulator advances N datacenter Simulators in global-time order
// under a single clock. New validates and prepares the run; Run (or
// RunContext) executes it once. The zero value is not usable and a
// ClusterSimulator cannot be rerun — construct a fresh one per run.
type ClusterSimulator struct {
	cfg    Config
	router Router
	sims   []*simulate.Simulator
	// times caches each datacenter's PeekNextEventTime; refreshed only for
	// the datacenter that processed an event or received an injection.
	times []float64
	// Global arrival state: streams[i] generates request i's Poisson
	// process, next[i] is its next arrival time (+Inf when past horizon).
	streams []*rng.Stream
	next    []float64
	// canServe[i][d] precomputes whether datacenter d scheduled global
	// request i; capacity[d] is Σ A_v. states is the reused Route buffer.
	canServe [][]bool
	capacity []float64
	states   []DCState

	// dcIdx and arrIdx are the sequential driver's incremental argmin
	// structures over times and next (see timeindex.go).
	dcIdx  timeIndex
	arrIdx timeIndex

	res *Results
	ran bool
}

// New validates cfg and prepares a single-use cluster simulator: every
// datacenter is Reset with its (InjectOnly-augmented) config and the global
// arrival streams are seeded.
func New(cfg Config) (*ClusterSimulator, error) {
	if len(cfg.Datacenters) == 0 {
		return nil, errors.New("cluster: at least one datacenter is required")
	}
	if !(cfg.WANLatency >= 0) || math.IsInf(cfg.WANLatency, 1) {
		return nil, fmt.Errorf("cluster: WAN latency %v must be non-negative and finite", cfg.WANLatency)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("cluster: negative worker count %d", cfg.Workers)
	}
	horizon := cfg.Datacenters[0].Sim.Horizon
	warmup := cfg.Datacenters[0].Sim.Warmup
	for i := range cfg.Datacenters {
		if cfg.Datacenters[i].Sim.Horizon != horizon || cfg.Datacenters[i].Sim.Warmup != warmup {
			return nil, fmt.Errorf("cluster: datacenter %d horizon/warmup (%v/%v) differs from datacenter 0 (%v/%v); the shared clock requires equal windows",
				i, cfg.Datacenters[i].Sim.Horizon, cfg.Datacenters[i].Sim.Warmup, horizon, warmup)
		}
	}
	seen := make(map[model.RequestID]bool, len(cfg.Global))
	globalIDs := make([]model.RequestID, 0, len(cfg.Global))
	for i, g := range cfg.Global {
		if g.ID == "" {
			return nil, fmt.Errorf("cluster: global request %d: empty id", i)
		}
		if seen[g.ID] {
			return nil, fmt.Errorf("cluster: duplicate global request %q", g.ID)
		}
		seen[g.ID] = true
		if g.Source == nil && (!(g.Rate > 0) || math.IsInf(g.Rate, 1)) {
			return nil, fmt.Errorf("cluster: global request %q: rate %v must be positive and finite", g.ID, g.Rate)
		}
		if g.Home < 0 || g.Home >= len(cfg.Datacenters) {
			return nil, fmt.Errorf("cluster: global request %q: home %d outside [0,%d)", g.ID, g.Home, len(cfg.Datacenters))
		}
		globalIDs = append(globalIDs, g.ID)
	}
	router := cfg.Router
	if router == nil {
		router = LocalityFirst{}
	}

	c := &ClusterSimulator{
		cfg:      cfg,
		router:   router,
		sims:     make([]*simulate.Simulator, len(cfg.Datacenters)),
		times:    make([]float64, len(cfg.Datacenters)),
		streams:  make([]*rng.Stream, len(cfg.Global)),
		next:     make([]float64, len(cfg.Global)),
		canServe: make([][]bool, len(cfg.Global)),
		capacity: make([]float64, len(cfg.Datacenters)),
		states:   make([]DCState, len(cfg.Datacenters)),
	}
	for d := range cfg.Datacenters {
		simCfg := cfg.Datacenters[d].Sim
		if len(globalIDs) > 0 {
			// Copy-on-write: never mutate the caller's InjectOnly slice.
			merged := make([]model.RequestID, 0, len(simCfg.InjectOnly)+len(globalIDs))
			merged = append(merged, simCfg.InjectOnly...)
			merged = append(merged, globalIDs...)
			simCfg.InjectOnly = merged
		}
		sim := simulate.NewSimulator()
		if err := sim.Reset(simCfg); err != nil {
			return nil, fmt.Errorf("cluster: datacenter %d (%s): %w", d, c.dcName(d), err)
		}
		c.sims[d] = sim
		if simCfg.Problem != nil {
			for _, n := range simCfg.Problem.Nodes {
				c.capacity[d] += n.Capacity
			}
		}
	}
	for i, g := range cfg.Global {
		c.streams[i] = rng.Derive(cfg.Seed, "cluster/arrivals/"+string(g.ID))
		c.next[i] = c.nextArrival(i, 0, horizon)
		c.canServe[i] = make([]bool, len(cfg.Datacenters))
		for d := range c.sims {
			c.canServe[i][d] = c.sims[d].CanServe(g.ID)
		}
	}
	c.res = &Results{
		Horizon:    horizon,
		Router:     router.Name(),
		RoutedByDC: make([]int, len(cfg.Datacenters)),
	}
	return c, nil
}

// nextArrival draws global flow i's next arrival time strictly after t:
// from the flow's custom Source when one is set, otherwise from the Poisson
// process at Rate on the flow's derived stream. Arrivals at or past the
// horizon — and exhausted sources — come back as +Inf, which retires the
// flow from the arrival index heaps.
func (c *ClusterSimulator) nextArrival(i int, after, horizon float64) float64 {
	g := &c.cfg.Global[i]
	var next float64
	if g.Source != nil {
		t, ok := g.Source.Next(after)
		if !ok {
			return math.Inf(1)
		}
		next = t
		if !(next >= after) { // clamp non-monotone or NaN sources
			next = after
		}
	} else {
		next = after + c.streams[i].Exp(g.Rate)
	}
	if next >= horizon {
		return math.Inf(1)
	}
	return next
}

func (c *ClusterSimulator) dcName(d int) string {
	if n := c.cfg.Datacenters[d].Name; n != "" {
		return n
	}
	return fmt.Sprintf("dc%d", d)
}

// Run executes the cluster simulation and returns the aggregated results.
func (c *ClusterSimulator) Run() (*Results, error) {
	return c.RunContext(context.Background())
}

// RunContext is Run with cancellation (polled every
// simulate.CtxCheckInterval events). Config.Workers selects the driver:
// 0 runs the event-interleaved sequential loop, >= 1 the conservative-window
// loop (see windowed.go); both produce bit-identical results.
func (c *ClusterSimulator) RunContext(ctx context.Context) (*Results, error) {
	if c.ran {
		return nil, errors.New("cluster: a ClusterSimulator runs once; construct a new one")
	}
	c.ran = true
	for d, sim := range c.sims {
		c.times[d] = sim.PeekNextEventTime()
	}
	var err error
	if c.cfg.Workers >= 1 {
		err = c.runWindowed(ctx, c.cfg.Workers)
	} else {
		err = c.runSequential(ctx)
	}
	if err != nil {
		return nil, err
	}
	return c.finalizeAll()
}

// runSequential advances the composition one event at a time: the globally
// earliest pending occurrence — a datacenter event or a cluster-level
// arrival — is processed next. Ties go to datacenter events: an arrival
// injected at time t enters strictly after events already scheduled at t,
// matching the simulator's FIFO seq order. The argmin over datacenters and
// arrival streams comes from incrementally maintained index heaps, so one
// step costs O(log N) instead of the O(N) rescan the loop used to pay.
func (c *ClusterSimulator) runSequential(ctx context.Context) error {
	c.dcIdx.init(c.times)
	c.arrIdx.init(c.next)
	done := ctx.Done()
	check := simulate.CtxCheckInterval
	for {
		if done != nil {
			check--
			if check <= 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
				check = simulate.CtxCheckInterval
			}
		}
		minDC, minT := c.dcIdx.min()
		minA, arrT := c.arrIdx.min()
		if minDC < 0 && minA < 0 {
			return nil
		}
		if minA >= 0 && arrT < minT {
			if target := c.routeArrival(minA, arrT); target >= 0 {
				c.dcIdx.update(target, c.times[target])
			}
			c.next[minA] = c.nextArrival(minA, arrT, c.res.Horizon)
			c.arrIdx.update(minA, c.next[minA])
			continue
		}
		c.sims[minDC].ProcessNextEvent()
		c.times[minDC] = c.sims[minDC].PeekNextEventTime()
		c.dcIdx.update(minDC, c.times[minDC])
	}
}

// finalizeAll publishes every datacenter's measurements and the cluster-wide
// aggregates once a driver has drained the composition.
func (c *ClusterSimulator) finalizeAll() (*Results, error) {
	for d, sim := range c.sims {
		res, err := sim.Finalize()
		if err != nil {
			return nil, fmt.Errorf("cluster: datacenter %d (%s): %w", d, c.dcName(d), err)
		}
		c.res.Datacenters = append(c.res.Datacenters, DCResults{Name: c.dcName(d), Results: res})
		c.res.Generated += res.Generated
		c.res.Delivered += res.Delivered
		c.res.Retransmissions += res.Retransmissions
		c.res.Dropped += res.Dropped
		c.res.InFlight += res.InFlight
		c.res.Latency.Merge(&res.Latency)
	}
	c.res.Availability = 1
	if c.res.Generated > 0 {
		c.res.Availability = float64(c.res.Delivered) / float64(c.res.Generated)
	}
	return c.res, nil
}

// routeArrival asks the policy to place one arrival of global request i at
// time t and injects it into the chosen datacenter. It returns the index of
// the datacenter that admitted the packet (its cached next-event time in
// c.times has been refreshed — injections can pull it earlier), or -1 when
// the arrival was rejected or truncated.
func (c *ClusterSimulator) routeArrival(i int, t float64) int {
	g := &c.cfg.Global[i]
	for d := range c.states {
		c.states[d] = DCState{
			Name:     c.dcName(d),
			Home:     d == g.Home,
			CanServe: c.canServe[i][d],
			Pending:  c.sims[d].PendingPackets(),
			Routed:   c.res.RoutedByDC[d],
			Capacity: c.capacity[d],
		}
	}
	target := c.router.Route(g, c.states)
	if target < 0 || target >= len(c.sims) || !c.canServe[i][target] {
		c.res.Rejected++
		return -1
	}
	at := t
	if target != g.Home {
		at += c.cfg.WANLatency
	}
	ok, err := c.sims[target].Inject(at, t, g.ID)
	if err != nil {
		// Unreachable by construction (target serves g, at >= now); an
		// injection error would mean a policy bug — count it as a rejection
		// rather than abort a long run.
		c.res.Rejected++
		return -1
	}
	if !ok {
		c.res.Truncated++
		return -1
	}
	c.res.RoutedByDC[target]++
	if target != g.Home {
		c.res.WANHops++
	} else {
		c.res.RoutedLocal++
	}
	c.times[target] = c.sims[target].PeekNextEventTime()
	return target
}
