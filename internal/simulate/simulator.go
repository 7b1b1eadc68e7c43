package simulate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
	"nfvchain/internal/stats"
	"nfvchain/internal/workload"
)

// InstanceKey identifies one service instance of a VNF.
type InstanceKey struct {
	VNF      model.VNFID
	Instance int
}

// Config parameterizes one simulation run.
type Config struct {
	Problem  *model.Problem
	Schedule *model.Schedule
	// Placement is optional; when present, consecutive chain stages hosted
	// on different nodes incur LinkDelay (the paper's per-hop constant L in
	// Eq. 16). When nil, all stages are considered co-located.
	Placement *model.Placement

	Horizon float64 // simulated seconds; must be positive
	Warmup  float64 // samples from packets arriving before Warmup are discarded

	// LinkDelay is the constant inter-node latency L. Ignored without a
	// placement.
	LinkDelay float64

	// BufferSize bounds each instance's waiting room (excluding the packet
	// in service); 0 means unbounded. Full buffers drop arriving packets.
	BufferSize int

	// DropPolicy selects what happens to a packet that meets a full buffer.
	// The zero value (DropDiscard) keeps the historical semantics: the drop
	// is counted and the packet vanishes. DropRetransmit models the paper's
	// NACK loss feedback (Fig. 3) for mid-chain losses too: the source
	// learns of the drop and re-injects the packet after RetransmitDelay.
	DropPolicy DropPolicy

	// RetransmitDelay is the NACK round-trip before a dropped packet is
	// re-injected at its source. Required (positive) with DropRetransmit —
	// an instantaneous retry against a still-full buffer would livelock the
	// event loop. Ignored under DropDiscard.
	RetransmitDelay float64

	// Arrivals is the run's external arrival process: a time-ordered cursor
	// of (time, request) rows — workload.NewMergedStream over generator
	// sources, a workload.TraceStream over a CSV, or the Cursor of an
	// in-memory workload.Trace. nil means each admitted request's Poisson
	// process at its Rate, on its "arrivals/<id>" stream. Every run takes
	// the same path: exactly one row is pending at any moment, so a 10M-row
	// trace runs in constant memory. Rows naming unknown or inject-only
	// requests are skipped, and the first row at or past the horizon ends
	// the cursor. A cursor error, or a row earlier than the clock (negative
	// and NaN times included), stops it and fails the run at Run/Finalize.
	//   - Time ties: external rows win time ties against in-run events,
	//     and tied rows pop in row order.
	//   - Shedding: every external arrival can be shed
	//     (ControlPlane.SetShedFraction), trace rows included.
	//   - Custom generators: a source that returns a time earlier than the
	//     one asked for is retired (workload.MergedStream's rule).
	Arrivals workload.ArrivalCursor

	// ExpectedArrivals hints the total number of external arrivals the run
	// will admit. It only sizes the up-front LatencySamples reservation
	// (capped at 2 Mi samples), for runs whose arrival count is unknowable
	// up front (an Arrivals cursor). 0 falls back to the offered-rate
	// estimate Σ Rate·(Horizon−Warmup) over the scheduled requests.
	ExpectedArrivals int

	// InjectOnly lists requests whose external arrivals are supplied by the
	// caller through Simulator.Inject instead of being generated from Rate
	// (or read from Arrivals). The requests still participate in scheduling and
	// admission exactly like any other — only their arrival source changes.
	// This is how a ClusterSimulator drives cross-datacenter traffic: every
	// datacenter provisions for the global requests it might serve, and the
	// cluster scheduler injects each global packet into the datacenter its
	// routing policy picked. IDs absent from the problem (or removed by
	// admission) are ignored.
	InjectOnly []model.RequestID

	// FaultPlan injects node failures (random MTBF/MTTR chains and/or
	// scheduled outages). nil disables fault injection entirely, leaving
	// every event and RNG stream bit-identical to historical runs. A
	// FaultPlan requires a Placement (failures are per node).
	FaultPlan *FaultPlan

	// FailurePolicy selects the fate of packets caught at a failed
	// instance (zero value FailDrop = crash loss). FailRetransmit requires
	// a positive RetransmitDelay. Ignored without a FaultPlan.
	FailurePolicy FailurePolicy

	// Controller, if non-nil, is the control plane: it hears of node
	// transitions and announced preemptions (under a FaultPlan), receives a
	// tick every ControlInterval, and may reshape the deployment through
	// the ControlPlane each callback is handed (see internal/control). nil
	// keeps every event and RNG stream bit-identical to historical runs.
	Controller Controller

	// ControlInterval is the Controller's tick period (simulated seconds):
	// 0 schedules no tick, and a positive interval must be finite and
	// needs a Placement. Ignored without a Controller.
	ControlInterval float64

	// ServiceDist selects the per-packet service-time distribution; the
	// zero value means ServiceExponential (the paper's model assumption).
	// Non-exponential choices keep each instance's mean rate µ but change
	// its variability, quantifying how far the open-Jackson analytics can
	// be trusted when the M/M/1 assumption is violated.
	ServiceDist ServiceDist

	Seed uint64
}

// DropPolicy selects the fate of packets arriving at a full buffer.
type DropPolicy int

// Supported drop policies.
const (
	// DropDiscard counts the drop and discards the packet silently — the
	// source never learns of the loss. This is the historical default,
	// kept as the zero value for reproducibility of existing experiments.
	DropDiscard DropPolicy = iota
	// DropRetransmit counts the drop and re-injects the packet from its
	// source after Config.RetransmitDelay, mirroring the delivery-check
	// NACK path: no packet is ever silently lost (loss-feedback model of
	// the paper's Eq. 7 / Fig. 3).
	DropRetransmit
)

// ServiceDist selects the service-time distribution of every instance.
type ServiceDist int

// Supported service-time distributions (mean always 1/µ).
const (
	// ServiceExponential: CV = 1; the paper's M/M/1 assumption.
	ServiceExponential ServiceDist = iota
	// ServiceDeterministic: CV = 0; an M/D/1 system, the best case for
	// queueing (half the M/M/1 waiting time by Pollaczek–Khinchine).
	ServiceDeterministic
	// ServiceLogNormal: CV ≈ 1.31 (σ = 1); heavier-than-exponential tails,
	// the regime where M/M/1 analytics underestimate latency.
	ServiceLogNormal
)

// CV returns the distribution's coefficient of variation.
func (d ServiceDist) CV() float64 {
	switch d {
	case ServiceDeterministic:
		return 0
	case ServiceLogNormal:
		return math.Sqrt(math.E - 1)
	default:
		return 1
	}
}

// sample draws one service time with mean 1/mu.
func (d ServiceDist) sample(s *rng.Stream, mu float64) float64 {
	switch d {
	case ServiceDeterministic:
		return 1 / mu
	case ServiceLogNormal:
		// E[lognormal(µ̂,1)] = exp(µ̂+1/2) = 1/mu → µ̂ = −ln(mu) − 1/2.
		return s.LogNormal(-math.Log(mu)-0.5, 1)
	default:
		return s.Exp(mu)
	}
}

// Results aggregates one run's measurements.
type Results struct {
	Horizon, Warmup float64

	// Generated counts external packet arrivals admitted before the
	// horizon (retransmissions are not new packets).
	Generated int
	// Delivered counts packets that completed their chain and passed the
	// delivery check; Latency summarizes their end-to-end sojourn
	// (including retransmission passes and link hops).
	Delivered int
	Latency   stats.Summary
	// LatencySamples holds every measured end-to-end latency (post-warmup),
	// enabling percentile tail analysis.
	LatencySamples []float64

	// Retransmissions counts failed delivery checks (each triggers a new
	// pass from the source).
	Retransmissions int
	// Dropped counts buffer-full drop events. Under DropDiscard each event
	// permanently loses one packet; under DropRetransmit the packet is
	// re-injected at its source and only the extra pass is lost.
	Dropped int
	// DroppedByInstance breaks Dropped down by the instance whose full
	// buffer caused it, locating the bottleneck stage.
	DroppedByInstance map[InstanceKey]int
	// DropRetransmits counts drop-triggered source re-injections (only
	// non-zero under DropRetransmit; disjoint from Retransmissions, which
	// counts delivery-check NACKs).
	DropRetransmits int
	// InFlight counts packets admitted before the horizon that had neither
	// completed delivery nor been permanently lost when the run ended, so
	// Generated = Delivered + InFlight + discarded drops + FailureDrops +
	// Shed always holds (buffer drops are permanent only under DropDiscard;
	// failure drops only under FailDrop).
	InFlight int

	// Shed counts external arrivals turned away by the control plane's
	// deterministic admission shedding (ControlPlane.SetShedFraction):
	// offered — they count toward Generated and depress Availability — but
	// never admitted into the network. Always zero without a Controller.
	Shed int

	// FailureDrops counts packets permanently lost to node failures under
	// FailDrop — in service or queued at a failing instance, or arriving
	// while its node was down.
	FailureDrops int
	// FailureDropsByInstance breaks FailureDrops down by the instance that
	// held (or was about to hold) the packet.
	FailureDropsByInstance map[InstanceKey]int
	// FailRetransmits counts failure-triggered source re-injections (only
	// non-zero under FailRetransmit; disjoint from Retransmissions and
	// DropRetransmits).
	FailRetransmits int

	// Downtime is each node's accumulated out-of-service time within
	// [0, Horizon]; nodes that never failed are absent. Empty without a
	// FaultPlan.
	Downtime map[model.NodeID]float64

	// Availability is the fraction of offered packets that completed
	// delivery by the horizon, Delivered/Generated (1 when nothing was
	// offered). Without faults it is slightly below 1 only because of
	// still-in-flight packets and discarded buffer drops.
	Availability float64

	// Utilization is the measured busy fraction of each instance over
	// [Warmup, Horizon].
	Utilization map[InstanceKey]float64

	// MeanJobs is the time-averaged number of packets in each instance's
	// system (queue + service) over [Warmup, Horizon] — the empirical
	// counterpart of the paper's Eq. 10, E[N] = ρ/(1−ρ).
	MeanJobs map[InstanceKey]float64

	// PerRequest summarizes delivered latency per request.
	PerRequest map[model.RequestID]*stats.Summary

	// PerInstance summarizes the per-visit sojourn (queueing + service) at
	// each instance — the empirical W(f,k) of the paper's Eq. 11.
	PerInstance map[InstanceKey]*stats.Summary
}

// packet is one in-flight packet. Packets live in the simulation's flat
// arena and are addressed by int32 index, so events and ring buffers carry
// 4-byte handles instead of pointers.
type packet struct {
	reqIndex   int32
	stage      int32   // index into the request's chain
	birth      float64 // first external arrival time (retransmissions keep it)
	visitStart float64 // arrival time at the current instance
}

// instance is the runtime state of one service instance. Instances live in
// a flat table indexed by int32; the per-instance aggregates (visit sojourn
// summary, drop count) are folded into the Results maps at finalize so the
// event loop never touches a map.
type instance struct {
	key InstanceKey
	mu  float64
	// Waiting room: a power-of-two ring buffer of packet indices (q, qhead,
	// qlen), making both enqueue and dequeue O(1) without per-packet
	// allocation.
	q     []int32
	qhead int
	qlen  int
	// busy is the in-service packet index, -1 while idle.
	busy         int32
	serviceStart float64
	busyTime     float64 // accumulated within [warmup, horizon]
	stream       *rng.Stream

	// Fault state (inert without a FaultPlan): node indexes the node table
	// (-1 when faults are off), down mirrors the node's state so the
	// arrival hot path checks one local field, epoch invalidates pending
	// completion events of failed service, and bootUntil delays a
	// replacement instance's first service until its setup cost is paid.
	node      int32
	down      bool
	epoch     int32
	bootUntil float64
	// retired marks an instance removed by RemoveInstance: it drains its
	// residual work but receives no new routes. Observational only.
	retired bool

	// Control-plane utilization window (maintained only when the Controller
	// ticks, see simulation.ctrlOn): ctrlBusy accumulates raw busy time —
	// unclipped by warmup/horizon, unlike busyTime — and ctrlMark snapshots
	// it at each tick, so a tick's window utilization is their difference
	// over the window length.
	ctrlBusy float64
	ctrlMark float64

	// Time-averaged population bookkeeping (∫N dt over [warmup, horizon]).
	population int
	lastChange float64
	popArea    float64

	// dropped, failureDrops and visits feed DroppedByInstance,
	// FailureDropsByInstance and PerInstance.
	dropped      int
	failureDrops int
	visits       stats.Summary
}

// notePopulation folds the time since the last change into the ∫N dt area
// and applies the population delta.
func (inst *instance) notePopulation(now, warmup, horizon float64, delta int) {
	inst.popArea += float64(inst.population) * overlap(inst.lastChange, now, warmup, horizon)
	inst.lastChange = now
	inst.population += delta
}

// enqueue appends a packet index to the instance's ring buffer, doubling it
// when full (capacities stay powers of two so the index masks below are
// valid).
func (inst *instance) enqueue(pid int32) {
	if inst.qlen == len(inst.q) {
		grown := make([]int32, max(2*len(inst.q), 8))
		for i := 0; i < inst.qlen; i++ {
			grown[i] = inst.q[(inst.qhead+i)&(len(inst.q)-1)]
		}
		inst.q = grown
		inst.qhead = 0
	}
	inst.q[(inst.qhead+inst.qlen)&(len(inst.q)-1)] = pid
	inst.qlen++
}

// requeueFront pushes a packet index back onto the head of the ring buffer
// — the migration freeze path returns an interrupted in-service packet to
// the front so its position in line is preserved.
func (inst *instance) requeueFront(pid int32) {
	if inst.qlen == len(inst.q) {
		grown := make([]int32, max(2*len(inst.q), 8))
		for i := 0; i < inst.qlen; i++ {
			grown[i] = inst.q[(inst.qhead+i)&(len(inst.q)-1)]
		}
		inst.q = grown
		inst.qhead = 0
	}
	inst.qhead = (inst.qhead - 1) & (len(inst.q) - 1)
	inst.q[inst.qhead] = pid
	inst.qlen++
}

// dequeue pops the head of the ring buffer; the caller checks qlen > 0.
func (inst *instance) dequeue() int32 {
	pid := inst.q[inst.qhead]
	inst.qhead = (inst.qhead + 1) & (len(inst.q) - 1)
	inst.qlen--
	return pid
}

// simulation is the run state.
type simulation struct {
	cfg     Config
	agenda  agenda
	now     float64
	results *Results

	// requests holds the admitted requests, those the schedule serves, in
	// problem order.
	requests []model.Request
	// instances is the flat instance table; instIndex resolves keys to
	// table indices during build.
	instances []instance
	instIndex map[InstanceKey]int32

	// Flat chain routing: stage s of request i is served by instance
	// routeFlat[chainOff[i]+s] and incurs link delay hopFlat[chainOff[i]+s]
	// on entry (0 for s=0 or co-located stages).
	chainOff  []int32
	routeFlat []int32
	hopFlat   []float64

	deliveryStreams []*rng.Stream

	// perReq accumulates delivered latency per request index; finalize
	// publishes it as Results.PerRequest.
	perReq []stats.Summary

	// sums is the one carve behind every Results.PerRequest and
	// PerInstance summary, kept across Resets: a reused Simulator's Results
	// aliases it until the next Reset.
	sums []stats.Summary

	// live counts admitted packets not yet delivered or permanently
	// dropped; finalize publishes it as Results.InFlight.
	live int

	// Stepping state. started records that seedArrivals/seedFaults ran (the
	// primitives and Run both trigger it lazily, exactly once per Reset).
	// staged holds an event popped by HasPendingEvents/PeekNextEventTime but
	// not yet processed; it is always the global minimum of the pending set.
	started   bool
	staged    event
	hasStaged bool

	// injectOnly[i] marks request i as externally driven (Config.InjectOnly):
	// no arrival row is generated or replayed for it.
	injectOnly []bool

	// Arrival state (see pullArrival). Without Config.Arrivals, poisson
	// holds the Poisson default of every admitted, non-inject-only request
	// and merge superposes them; merge's source index k is request
	// poisson[k].req, so the default path never resolves a request ID.
	// arrivalRow stamps each admitted row with its position in the low
	// sequence band (see streamSeqBase); arrivalErr latches the first cursor
	// failure — the cursor stops and Run/Finalize surface it after the
	// drain.
	poisson    []poissonSource
	merge      workload.MergedStream
	arrivalRow uint64
	arrivalErr error

	// packets is the flat packet arena; packetFree recycles indices. The
	// simulation is single-goroutine, so a plain slice beats sync.Pool: no
	// synchronization, and recycling order is deterministic.
	packets    []packet
	packetFree []int32

	// Fault state, populated only when cfg.FaultPlan != nil (see fault.go).
	nodes []nodeState
	// nextInst tracks, per VNF ordinal, the next free instance index for
	// ControlPlane.AddInstance (base indices [0, M_f) are reserved).
	nextInst []int

	// Control-plane state, inert unless the Controller ticks (ctrlOn) or
	// enables shedding. lastTick anchors the per-tick observation
	// window; shedFrac/shedAcc implement deterministic fractional admission
	// shedding (see shedNext).
	ctrlOn   bool
	lastTick float64
	shedFrac float64
	shedAcc  float64
	// handle is the one ControlPlane every Controller callback receives
	// (see plane).
	handle ControlPlane

	// Correlated-preemption state (cfg.FaultPlan.Preemption): the dedicated
	// stream, the pending event's drawn group and time, and draw/notice
	// scratch. At most one preemption is pending at a time.
	preemptStream *rng.Stream
	preemptGroup  []int32
	preemptPerm   []int32
	preemptAt     float64
	noticeIDs     []model.NodeID

	// streams caches derived RNG streams by label: Reset rewinds a cached
	// stream in place (rng.Stream.Reseed) instead of re-deriving it, which
	// would allocate per request and instance on every trial. labelBuf is the
	// reused label scratch; the map lookup on string(labelBuf) does not
	// allocate.
	streams  map[string]*rng.Stream
	labelBuf []byte

	// ix is the problem's ordinal layout, rebuilt in place by Reset.
	// admitted maps a problem ordinal to its admitted ordinal, the index of
	// every per-request table above, or −1; tables is the one allocation
	// behind admitted, chainOff and routeFlat.
	ix       model.Index
	admitted []int32
	tables   []int32
}

// poissonSource is the default arrival process of admitted request req: the
// flat-Poisson process of the paper, drawing inter-arrival gaps from the
// request's cached "arrivals/<id>" stream. Instances live in the
// simulation's poisson arena so Reset reuse allocates nothing, and Next
// performs the exact arithmetic of workload.PoissonSource on the same
// stream.
type poissonSource struct {
	stream *rng.Stream
	rate   float64
	req    int32
}

func (p *poissonSource) Next(after float64) (float64, bool) {
	return after + p.stream.Exp(p.rate), true
}

// stream returns the cached stream for the label currently in labelBuf,
// rewound to the state rng.Derive(cfg.Seed, label) would start in —
// bit-identical to a fresh derivation, allocation-free after the first run.
func (s *simulation) stream() *rng.Stream {
	if st, ok := s.streams[string(s.labelBuf)]; ok {
		st.Reseed(s.cfg.Seed, s.labelBuf)
		return st
	}
	if s.streams == nil {
		s.streams = make(map[string]*rng.Stream)
	}
	lbl := string(s.labelBuf)
	st := rng.Derive(s.cfg.Seed, lbl)
	s.streams[lbl] = st
	return st
}

// namedStream resolves the stream labeled prefix+id.
func (s *simulation) namedStream(prefix, id string) *rng.Stream {
	s.labelBuf = append(s.labelBuf[:0], prefix...)
	s.labelBuf = append(s.labelBuf, id...)
	return s.stream()
}

// serviceStream resolves the per-instance service stream, labeled
// "service/<vnf>/<k>" exactly as the historical fmt.Sprintf spelling.
func (s *simulation) serviceStream(f model.VNFID, k int) *rng.Stream {
	s.labelBuf = append(s.labelBuf[:0], "service/"...)
	s.labelBuf = append(s.labelBuf, f...)
	s.labelBuf = append(s.labelBuf, '/')
	s.labelBuf = strconv.AppendInt(s.labelBuf, int64(k), 10)
	return s.stream()
}

// newPacket returns the arena index of a recycled (or fresh) packet for
// request i born at t. Pointers into the arena must be re-derived after any
// call — appends may move the backing array.
func (s *simulation) newPacket(i int32, t float64) int32 {
	if n := len(s.packetFree); n > 0 {
		pid := s.packetFree[n-1]
		s.packetFree = s.packetFree[:n-1]
		s.packets[pid] = packet{reqIndex: i, birth: t}
		return pid
	}
	s.packets = append(s.packets, packet{reqIndex: i, birth: t})
	return int32(len(s.packets) - 1)
}

// freePacket recycles the packet index after delivery or a discarding drop.
func (s *simulation) freePacket(pid int32) {
	s.packetFree = append(s.packetFree, pid)
}

// Simulator owns a reusable simulation: Reset(cfg) prepares a run while
// retaining every backing array of the previous one (agenda, packet arena,
// ring buffers, free lists, latency-sample slice, result maps), and Run()
// executes it. Sweeps that evaluate many configurations amortize all run
// -state allocation this way:
//
//	var sim Simulator
//	for _, cfg := range cfgs {
//		if err := sim.Reset(cfg); err != nil { ... }
//		res, err := sim.Run()
//		// consume res before the next Reset
//	}
//
// The Results returned by Run aliases the simulator's reused buffers and is
// only valid until the next Reset. Use the package-level Run for a fresh,
// independently owned Results. A Simulator must not be shared across
// goroutines. The zero value is ready to use.
type Simulator struct {
	s     simulation
	ready bool
}

// NewSimulator returns an empty reusable simulator.
func NewSimulator() *Simulator { return &Simulator{} }

// Run executes one simulation with freshly allocated state and returns its
// measurements. The Results is independently owned and stays valid
// indefinitely.
func Run(cfg Config) (*Results, error) {
	var sim Simulator
	if err := sim.Reset(cfg); err != nil {
		return nil, err
	}
	return sim.Run()
}

// RunContext is Run with cancellation: the event loop drains in chunks of
// CtxCheckInterval events, polls ctx between chunks and aborts with
// ctx.Err() when it fires. A context.Background() run is bit-identical to
// Run — the check never perturbs RNG streams or event order, it only
// decides whether to keep going.
func RunContext(ctx context.Context, cfg Config) (*Results, error) {
	var sim Simulator
	if err := sim.Reset(cfg); err != nil {
		return nil, err
	}
	return sim.RunContext(ctx)
}

// Reset validates cfg and prepares the simulator for one run, reusing the
// previous run's backing arrays. Any Results previously returned by Run is
// invalidated.
func (sim *Simulator) Reset(cfg Config) error {
	sim.ready = false
	if cfg.Problem == nil || cfg.Schedule == nil {
		return errors.New("simulate: Problem and Schedule are required")
	}
	if !(cfg.Horizon > 0) || math.IsInf(cfg.Horizon, 1) {
		return fmt.Errorf("simulate: horizon %v must be positive and finite", cfg.Horizon)
	}
	if !(cfg.Warmup >= 0 && cfg.Warmup < cfg.Horizon) {
		return fmt.Errorf("simulate: warmup %v outside [0, horizon)", cfg.Warmup)
	}
	if !(cfg.LinkDelay >= 0) || math.IsInf(cfg.LinkDelay, 1) {
		return fmt.Errorf("simulate: link delay %v must be non-negative and finite", cfg.LinkDelay)
	}
	if cfg.BufferSize < 0 {
		return fmt.Errorf("simulate: negative buffer size %d", cfg.BufferSize)
	}
	switch cfg.DropPolicy {
	case DropDiscard:
	case DropRetransmit:
		if !(cfg.RetransmitDelay > 0) || math.IsInf(cfg.RetransmitDelay, 1) {
			return fmt.Errorf("simulate: DropRetransmit requires a positive finite RetransmitDelay, got %v", cfg.RetransmitDelay)
		}
	default:
		return fmt.Errorf("simulate: unknown drop policy %d", cfg.DropPolicy)
	}
	switch cfg.ServiceDist {
	case ServiceExponential, ServiceDeterministic, ServiceLogNormal:
	default:
		return fmt.Errorf("simulate: unknown service distribution %d", cfg.ServiceDist)
	}
	if cfg.ExpectedArrivals < 0 {
		return fmt.Errorf("simulate: negative ExpectedArrivals %d", cfg.ExpectedArrivals)
	}
	switch cfg.FailurePolicy {
	case FailDrop:
	case FailRetransmit:
		if cfg.FaultPlan != nil && (!(cfg.RetransmitDelay > 0) || math.IsInf(cfg.RetransmitDelay, 1)) {
			return fmt.Errorf("simulate: FailRetransmit requires a positive finite RetransmitDelay, got %v", cfg.RetransmitDelay)
		}
	default:
		return fmt.Errorf("simulate: unknown failure policy %d", cfg.FailurePolicy)
	}
	if cfg.FaultPlan != nil {
		if cfg.Placement == nil {
			return errors.New("simulate: FaultPlan requires a Placement (failures are per node)")
		}
		if err := cfg.FaultPlan.validate(cfg.Problem); err != nil {
			return err
		}
	}
	if cfg.Controller != nil {
		if math.IsNaN(cfg.ControlInterval) || cfg.ControlInterval < 0 || math.IsInf(cfg.ControlInterval, 1) {
			return fmt.Errorf("simulate: ControlInterval %v must be 0 (no ticks) or positive and finite", cfg.ControlInterval)
		}
		if cfg.ControlInterval > 0 && cfg.Placement == nil {
			return errors.New("simulate: a ticking Controller requires a Placement (the control plane acts per node)")
		}
	}
	// Partial validation: requests absent from the schedule were rejected by
	// admission control and simply generate no traffic.
	cfg.Schedule = cfg.Schedule.For(cfg.Problem)
	if err := cfg.Schedule.ValidatePartial(cfg.Problem); err != nil {
		return fmt.Errorf("simulate: %w", err)
	}
	if cfg.Placement != nil {
		if err := cfg.Placement.Validate(cfg.Problem); err != nil {
			return fmt.Errorf("simulate: %w", err)
		}
	}

	s := &sim.s
	s.cfg = cfg
	s.now = 0
	s.live = 0
	s.started = false
	s.hasStaged = false
	s.ctrlOn = cfg.Controller != nil && cfg.ControlInterval > 0
	s.lastTick = 0
	s.shedFrac = 0
	s.shedAcc = 0
	s.preemptStream = nil
	s.preemptGroup = s.preemptGroup[:0]
	s.preemptAt = 0
	s.agenda.reset()
	s.packets = s.packets[:0]
	s.packetFree = s.packetFree[:0]
	s.requests = s.requests[:0]
	s.hopFlat = s.hopFlat[:0]
	s.deliveryStreams = s.deliveryStreams[:0]
	s.perReq = s.perReq[:0]
	s.injectOnly = s.injectOnly[:0]
	s.poisson = s.poisson[:0]
	s.merge.Reset()
	s.arrivalRow = 0
	s.arrivalErr = nil
	// Fault state is truncated, not dropped: buildFaults recycles the node
	// table (and each node's instances slice), so failure-churn sweeps
	// reuse memory like the packet arena does.
	s.nodes = s.nodes[:0]
	s.nextInst = s.nextInst[:0]
	s.resetResults()
	if err := s.build(); err != nil {
		return err
	}
	// The main heap holds about one service completion per instance plus
	// a few fault and control events.
	s.agenda.reserve(len(s.instances) + 16)
	s.presizeSamples()
	sim.ready = true
	return nil
}

// Run executes the run prepared by the preceding Reset. The returned Results
// aliases the simulator's buffers and is valid until the next Reset.
func (sim *Simulator) Run() (*Results, error) {
	return sim.RunContext(context.Background())
}

// CtxCheckInterval is the chunk size in which RunContext drains the agenda
// under a cancellable context: it polls ctx between chunks, so a cancelled
// run stops within at most this many events of the cancellation. The poll
// is amortized so heavily that it is invisible in the event-loop
// benchmarks; contexts that can never be cancelled (Done() == nil, e.g.
// context.Background()) drain in one chunk and never poll.
const CtxCheckInterval = 4096

// RunContext executes the run prepared by the preceding Reset, aborting
// with ctx.Err() if ctx is cancelled mid-run (the Results is then nil and
// the simulator needs a fresh Reset). The returned Results aliases the
// simulator's buffers and is valid until the next Reset.
//
// RunContext drains to the horizon with the same loop as DrainUntil (see
// drain), so a run that was partially advanced with ProcessNextEvent or
// DrainUntil may be finished with RunContext — the remaining events
// process identically.
func (sim *Simulator) RunContext(ctx context.Context) (*Results, error) {
	if !sim.ready {
		return nil, errors.New("simulate: Run requires a successful Reset first")
	}
	sim.ready = false
	s := &sim.s
	s.start()
	if ctx.Done() == nil {
		s.drain(s.cfg.Horizon, math.MaxInt)
	} else {
		for s.drain(s.cfg.Horizon, CtxCheckInterval) == CtxCheckInterval {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
	}
	if s.arrivalErr != nil {
		return nil, s.arrivalErr
	}
	s.finalize()
	return s.results, nil
}

// HasPendingEvents reports whether at least one event remains at or before
// the horizon — whether ProcessNextEvent would do work. Stepping primitive
// for external schedulers (see internal/cluster): the idiomatic drive loop
//
//	for sim.HasPendingEvents() {
//		sim.ProcessNextEvent()
//	}
//	res, err := sim.Finalize()
//
// is event-for-event identical to Run. The first primitive called after
// Reset seeds the initial arrivals and faults.
func (sim *Simulator) HasPendingEvents() bool {
	if !sim.ready {
		return false
	}
	s := &sim.s
	s.start()
	return s.stage() && s.staged.time <= s.cfg.Horizon
}

// PeekNextEventTime returns the simulated time of the next pending event
// without processing it, or +Inf when nothing remains at or before the
// horizon. This is what a ClusterSimulator compares across datacenters to
// advance the composition in global-time order.
func (sim *Simulator) PeekNextEventTime() float64 {
	if !sim.ready {
		return math.Inf(1)
	}
	s := &sim.s
	s.start()
	if !s.stage() || s.staged.time > s.cfg.Horizon {
		return math.Inf(1)
	}
	return s.staged.time
}

// ProcessNextEvent processes exactly one event, advancing the simulated
// clock to its time; it reports false (and does nothing) when no event
// remains at or before the horizon.
func (sim *Simulator) ProcessNextEvent() bool {
	if !sim.ready {
		return false
	}
	s := &sim.s
	s.start()
	if !s.stage() || s.staged.time > s.cfg.Horizon {
		return false
	}
	e := s.staged
	s.hasStaged = false
	s.now = e.time
	s.dispatch(e)
	return true
}

// DrainUntil processes every pending event with time <= t (capped at the
// horizon) and returns the number of events processed. It is the batch
// counterpart of ProcessNextEvent for window-based external schedulers (see
// internal/cluster's conservative-window driver): draining a datacenter to a
// barrier costs one call, running the same loop as RunContext (see drain),
// while popping the exact same (time, seq) event order as a
// ProcessNextEvent loop would.
//
// max > 0 bounds how many events this call may process, so a driver can
// interleave cancellation checks between chunks; max <= 0 drains without
// bound. A return value equal to max means the drain may be incomplete —
// call again; any smaller value means every remaining event is later than t
// (the first of them stays staged, so a following PeekNextEventTime is O(1)).
func (sim *Simulator) DrainUntil(t float64, max int) int {
	if !sim.ready {
		return 0
	}
	s := &sim.s
	s.start()
	if max <= 0 {
		max = math.MaxInt
	}
	return s.drain(min(t, s.cfg.Horizon), max)
}

// Finalize ends a stepped run, publishing its measurements: the counterpart
// of Run's implicit finalization for drive loops built on the stepping
// primitives. Like Run, the returned Results aliases the simulator's buffers
// (valid until the next Reset), and the simulator needs a fresh Reset before
// it can run again. Finalizing before the agenda is drained is legal and
// simply measures the truncated run.
func (sim *Simulator) Finalize() (*Results, error) {
	if !sim.ready {
		return nil, errors.New("simulate: Finalize requires a successful Reset first")
	}
	sim.ready = false
	s := &sim.s
	s.start() // a never-stepped run still admits its seeded arrivals
	if s.arrivalErr != nil {
		return nil, s.arrivalErr
	}
	s.finalize()
	return s.results, nil
}

// Inject admits one external packet of request id arriving at time at. The
// packet's measured latency runs from birth, letting a caller account for
// upstream delay already incurred (a ClusterSimulator charges the WAN entry
// hop this way: arrival at t+WAN with birth t); use birth == at when there
// is none. Inject reports false with a nil error when at is past the
// horizon — the packet is simply not admitted, mirroring how seeded traffic
// past the horizon is cut off. The injection must not be in the simulator's
// past (at >= the last processed event time), and id must name a scheduled
// request. Events already peeked via PeekNextEventTime remain correctly
// ordered: an injected arrival earlier than the staged event is re-queued
// ahead of it.
func (sim *Simulator) Inject(at, birth float64, id model.RequestID) (bool, error) {
	if !sim.ready {
		return false, errors.New("simulate: Inject requires a successful Reset first")
	}
	s := &sim.s
	s.start()
	ri, ok := s.requestIndex(id)
	if !ok {
		return false, fmt.Errorf("simulate: Inject: request %q is not scheduled in this simulation", id)
	}
	if !(at >= s.now) || math.IsInf(at, 1) {
		return false, fmt.Errorf("simulate: Inject at %v outside [now=%v, +Inf)", at, s.now)
	}
	if !(birth <= at) || math.IsNaN(birth) {
		return false, fmt.Errorf("simulate: Inject birth %v must not exceed arrival time %v", birth, at)
	}
	if at >= s.cfg.Horizon {
		return false, nil
	}
	if s.shedFrac > 0 && s.shedNext() {
		// Admission shed: the injection is offered but turned away.
		s.results.Generated++
		s.results.Shed++
		return true, nil
	}
	// If a peeked event is staged and the injection precedes it, the staged
	// event goes back to the agenda (original seq intact) so the next pop
	// returns the earlier of the two.
	if s.hasStaged && at < s.staged.time {
		s.agenda.unpop(s.staged)
		s.hasStaged = false
	}
	s.results.Generated++
	s.live++
	pid := s.newPacket(ri, birth)
	s.agenda.push(event{
		time: at,
		kind: evArrival,
		pkt:  pid,
		inst: s.routeFlat[s.chainOff[ri]],
	})
	return true, nil
}

// CanServe reports whether id is scheduled in this simulation — whether
// Inject would accept it. Routing policies use it to skip datacenters that
// never provisioned a request.
func (sim *Simulator) CanServe(id model.RequestID) bool {
	if !sim.ready {
		return false
	}
	_, ok := sim.s.requestIndex(id)
	return ok
}

// PendingPackets returns the number of admitted packets currently in flight
// (not yet delivered or permanently lost) — the live-load signal the
// cluster's least-loaded routing policy observes.
func (sim *Simulator) PendingPackets() int {
	return sim.s.live
}

// PendingEvents returns the number of events currently pending (agenda plus
// any staged peeked event), seeding the run first if no primitive has. It is
// the observable behind the streaming-memory guarantee: immediately after
// Reset, every run holds exactly one arrival row (none when no request has
// arrivals) — independent of how many arrivals the cursor will eventually
// deliver.
func (sim *Simulator) PendingEvents() int {
	if !sim.ready {
		return 0
	}
	s := &sim.s
	s.start()
	n := s.agenda.size()
	if s.hasStaged {
		n++
	}
	return n
}

// requestIndex resolves a request ID to its admitted ordinal; ok is false
// for a request the problem does not define or the schedule does not serve.
func (s *simulation) requestIndex(id model.RequestID) (int32, bool) {
	r, ok := s.ix.Request(id)
	if !ok || s.admitted[r] < 0 {
		return -1, false
	}
	return s.admitted[r], true
}

// start seeds the initial arrivals and faults exactly once per Reset; every
// entry point into the event loop (Run, the stepping primitives, Inject)
// triggers it lazily.
func (s *simulation) start() {
	if s.started {
		return
	}
	s.started = true
	s.seedArrivals()
	s.seedFaults()
	if s.ctrlOn && s.cfg.ControlInterval < s.cfg.Horizon {
		s.agenda.push(event{time: s.cfg.ControlInterval, kind: evControlTick})
	}
}

// stage ensures the next pending event (in (time, seq) order) is staged,
// reporting false when the agenda is drained. Staging is transparent to
// event order: handlers only push events during dispatch, when nothing is
// staged, except Inject — which explicitly re-queues a staged event it
// undercuts.
func (s *simulation) stage() bool {
	if s.hasStaged {
		return true
	}
	e, ok := s.agenda.pop()
	if !ok {
		return false
	}
	s.staged = e
	s.hasStaged = true
	return true
}

// resetResults clears the reused Results, retaining its maps and the
// latency-sample backing array.
func (s *simulation) resetResults() {
	if s.results == nil {
		s.results = &Results{
			Utilization:            make(map[InstanceKey]float64),
			MeanJobs:               make(map[InstanceKey]float64),
			DroppedByInstance:      make(map[InstanceKey]int),
			FailureDropsByInstance: make(map[InstanceKey]int),
			Downtime:               make(map[model.NodeID]float64),
			PerRequest:             make(map[model.RequestID]*stats.Summary),
			PerInstance:            make(map[InstanceKey]*stats.Summary),
		}
	}
	r := s.results
	clear(r.Utilization)
	clear(r.MeanJobs)
	clear(r.DroppedByInstance)
	clear(r.FailureDropsByInstance)
	clear(r.Downtime)
	clear(r.PerRequest)
	clear(r.PerInstance)
	*r = Results{
		Horizon:                s.cfg.Horizon,
		Warmup:                 s.cfg.Warmup,
		LatencySamples:         r.LatencySamples[:0],
		Utilization:            r.Utilization,
		MeanJobs:               r.MeanJobs,
		DroppedByInstance:      r.DroppedByInstance,
		FailureDropsByInstance: r.FailureDropsByInstance,
		Downtime:               r.Downtime,
		PerRequest:             r.PerRequest,
		PerInstance:            r.PerInstance,
	}
}

// addInstance appends a fresh instance to the table, recycling the ring
// buffer left in the slot by a previous run when one exists.
func (s *simulation) addInstance(key InstanceKey, mu float64, stream *rng.Stream) int32 {
	n := len(s.instances)
	if n < cap(s.instances) {
		s.instances = s.instances[:n+1]
		q := s.instances[n].q
		s.instances[n] = instance{key: key, mu: mu, stream: stream, busy: -1, node: -1, q: q}
	} else {
		s.instances = append(s.instances, instance{key: key, mu: mu, stream: stream, busy: -1, node: -1})
	}
	return int32(n)
}

// build resolves each request's chain to concrete instances and link hops.
func (s *simulation) build() error {
	p := s.cfg.Problem
	s.instances = s.instances[:0]
	if s.instIndex == nil {
		s.instIndex = make(map[InstanceKey]int32)
	} else {
		clear(s.instIndex)
	}
	s.ix.Rebuild(p)
	// At most every request is admitted, and the admitted chains fill at
	// most every slot of the index.
	nR, slots := len(p.Requests), s.ix.Slots()
	s.tables = slices.Grow(s.tables[:0], 2*nR+slots)
	s.admitted = s.tables[:0:nR]
	s.chainOff = s.tables[nR : nR : 2*nR]
	s.routeFlat = s.tables[2*nR : 2*nR : 2*nR+slots]
	s.hopFlat = slices.Grow(s.hopFlat, slots)
	sched := s.cfg.Schedule
	for ri := range p.Requests {
		r := &p.Requests[ri]
		// Skip requests the admission controller removed from the schedule.
		if !sched.Assigned(ri) {
			s.admitted = append(s.admitted, -1)
			continue
		}
		s.admitted = append(s.admitted, int32(len(s.requests)))
		s.requests = append(s.requests, *r)
		s.injectOnly = append(s.injectOnly, false)
		s.deliveryStreams = append(s.deliveryStreams, s.namedStream("delivery/", string(r.ID)))
		s.chainOff = append(s.chainOff, int32(len(s.routeFlat)))
		s.perReq = append(s.perReq, stats.Summary{})
		var prevNode model.NodeID
		lo, _ := sched.Index().ChainSlots(ri)
		for stage, f := range s.ix.Chain(ri) {
			fid := r.Chain[stage]
			k, ok := sched.At(lo + stage)
			if !ok {
				return fmt.Errorf("simulate: request %s unassigned at vnf %s", r.ID, fid)
			}
			key := InstanceKey{VNF: fid, Instance: k}
			iid, exists := s.instIndex[key]
			if !exists {
				iid = s.addInstance(key, p.VNFs[f].ServiceRate, s.serviceStream(fid, k))
				s.instIndex[key] = iid
			}
			hop := 0.0
			if s.cfg.Placement != nil {
				node, _ := s.cfg.Placement.Node(fid)
				if stage > 0 && node != prevNode {
					hop = s.cfg.LinkDelay
				}
				prevNode = node
			}
			s.routeFlat = append(s.routeFlat, iid)
			s.hopFlat = append(s.hopFlat, hop)
		}
	}
	for _, id := range s.cfg.InjectOnly {
		if i, ok := s.requestIndex(id); ok {
			s.injectOnly[i] = true
		}
	}
	// The Poisson default: one source per admitted request that is not
	// inject-only, merged in admitted order. The poisson arena is filled
	// completely before pointers into it are taken — appends may move the
	// backing array.
	if s.cfg.Arrivals == nil {
		for i := range s.requests {
			if !s.injectOnly[i] {
				r := &s.requests[i]
				s.poisson = append(s.poisson, poissonSource{stream: s.namedStream("arrivals/", string(r.ID)), rate: r.Rate, req: int32(i)})
			}
		}
		for k := range s.poisson {
			s.merge.Add(s.requests[s.poisson[k].req].ID, &s.poisson[k])
		}
	}
	// The node table serves both fault injection and the control plane
	// (migration and scaling act per node).
	if s.cfg.FaultPlan != nil || s.ctrlOn {
		if err := s.buildFaults(); err != nil {
			return err
		}
	}
	return nil
}

// presizeSamples reserves LatencySamples capacity for the expected number of
// post-warmup deliveries, so the hot loop appends without reallocating. The
// estimate is the ExpectedArrivals hint or else the aggregate Poisson rate
// over the measurement window, capped to bound the up-front reservation on
// huge horizons.
func (s *simulation) presizeSamples() {
	const presizeCap = 1 << 21 // 2 Mi samples = 16 MiB, then append growth takes over
	expected := s.cfg.ExpectedArrivals
	if expected == 0 {
		var totalRate float64
		for _, r := range s.requests {
			totalRate += r.Rate
		}
		expected = int(totalRate * (s.cfg.Horizon - s.cfg.Warmup))
	}
	if expected > presizeCap {
		expected = presizeCap
	}
	if expected > cap(s.results.LatencySamples) {
		s.results.LatencySamples = make([]float64, 0, expected)
	}
}

// streamSeqBase is where the regular sequence counter starts. External
// arrival rows pop in (time, row) order and win every time tie against
// in-run events: each admitted row is stamped with its position from the
// band [1, streamSeqBase] and the in-run counter starts above it. 2^48 rows
// dwarfs any replayable trace, and the in-run counter keeps 2^64−2^48
// values of headroom. Sequence values are unobservable — only pop order
// matters.
const streamSeqBase = 1 << 48

// seedArrivals reserves the row band and stages the first arrival row.
func (s *simulation) seedArrivals() {
	s.agenda.startSeqAt(streamSeqBase)
	s.pullArrival()
}

// pullArrival stages the next admissible row as a stamped evExternal event
// carrying its row-band sequence number, so exactly one arrival row is ever
// pending.
func (s *simulation) pullArrival() {
	if t, i, ok := s.nextRow(); ok {
		s.arrivalRow++
		s.agenda.pushStamped(event{time: t, seq: s.arrivalRow, kind: evExternal, reqIndex: i})
	}
}

// nextRow pulls the next admissible row and its admitted request; ok is
// false once the cursor ends. The first row at or past the horizon ends it
// (rows are time-ordered, so everything after it is cut off too). The
// Poisson default pulls the simulation's own merge and maps its source
// index straight to the request. A caller's cursor names requests by ID:
// rows naming unknown or inject-only requests are skipped, and a cursor
// error or a row earlier than the clock latches arrivalErr, which stops the
// cursor and fails the run once the agenda drains.
func (s *simulation) nextRow() (float64, int32, bool) {
	c := s.cfg.Arrivals
	if c == nil {
		t, k, ok := s.merge.NextSource()
		if !ok || t >= s.cfg.Horizon {
			return 0, 0, false
		}
		return t, s.poisson[k].req, true
	}
	for {
		t, id, ok := c.NextArrival()
		switch {
		case !ok:
			if err := c.Err(); err != nil {
				s.arrivalErr = fmt.Errorf("simulate: arrivals: %w", err)
			}
			return 0, 0, false
		case !(t >= s.now):
			s.arrivalErr = fmt.Errorf("simulate: arrivals: row at %v out of order (clock at %v)", t, s.now)
			return 0, 0, false
		case t >= s.cfg.Horizon:
			return 0, 0, false
		}
		if i, known := s.requestIndex(id); known && !s.injectOnly[i] {
			return t, i, true
		}
	}
}

// drain is the event loop: it dispatches, in (time, seq) order, at most max
// pending events with time <= t, and returns how many it dispatched. The
// staged event, if any, goes first; after it every event is popped from the
// agenda straight into dispatch, copied out once. An event later than t is
// left staged, so a drain that stops short of max has processed everything
// up to t. RunContext and DrainUntil both run on it.
func (s *simulation) drain(t float64, max int) int {
	n := 0
	if s.hasStaged {
		e := s.staged
		if e.time > t {
			return 0
		}
		s.hasStaged = false
		s.now = e.time
		s.dispatch(e)
		n++
	}
	a := &s.agenda
	for n < max {
		e, ok := a.pop()
		if !ok {
			return n
		}
		if e.time > t {
			s.staged = e
			s.hasStaged = true
			return n
		}
		s.now = e.time
		s.dispatch(e)
		n++
	}
	return n
}

// dispatch runs one event's handler; s.now has already been advanced to the
// event's time. This is the single dispatch point shared by drain and
// ProcessNextEvent.
func (s *simulation) dispatch(e event) {
	// evService leads: with due-now arrivals dispatched directly, service
	// completions are the bulk of what still flows through the agenda.
	switch e.kind {
	case evService:
		s.complete(e.inst, e.reqIndex)
	case evArrival:
		s.arrive(e.pkt, e.inst)
	case evNodeDown:
		s.nodeDown(e.inst, e.reqIndex == 1)
	case evNodeUp:
		s.nodeUp(e.inst, e.reqIndex == 1)
	case evInstanceReady:
		s.instanceReady(e.inst)
	case evControlTick:
		s.controlTick()
	case evPreempt:
		s.preemptFire()
	case evPreemptNotice:
		s.preemptNotice()
	case evExternal:
		s.external(e.reqIndex)
	}
}

// external handles one external arrival row of request i: count it, offer
// it to the shed valve, admit it at its first stage, then pull the next
// row. A row wins every time tie against in-run events, so the packet
// enters its first stage at once instead of through the agenda.
func (s *simulation) external(i int32) {
	s.results.Generated++
	if s.shedFrac > 0 && s.shedNext() {
		// Admission shed: offered but never admitted.
		s.results.Shed++
	} else {
		s.live++
		s.arrive(s.newPacket(i, s.now), s.routeFlat[s.chainOff[i]])
	}
	s.pullArrival()
}

// arrive delivers a packet to an instance's queue or service position. A
// packet reaching an instance whose node is down follows the failure policy;
// one reaching a still-booting replacement waits in its buffer.
func (s *simulation) arrive(pid, iid int32) {
	inst := &s.instances[iid]
	if inst.down {
		s.failPacket(pid, inst)
		return
	}
	s.packets[pid].visitStart = s.now
	if inst.busy < 0 && s.now >= inst.bootUntil {
		inst.notePopulation(s.now, s.cfg.Warmup, s.cfg.Horizon, +1)
		s.startService(inst, iid, pid)
		return
	}
	if s.cfg.BufferSize > 0 && inst.qlen >= s.cfg.BufferSize {
		s.drop(pid, inst)
		return
	}
	inst.notePopulation(s.now, s.cfg.Warmup, s.cfg.Horizon, +1)
	inst.enqueue(pid)
}

// drop handles a buffer-full arrival according to the configured policy.
func (s *simulation) drop(pid int32, inst *instance) {
	s.results.Dropped++
	inst.dropped++
	if s.cfg.DropPolicy == DropRetransmit {
		// NACK loss feedback: the source re-injects the packet after the
		// feedback round-trip, keeping its original birth time so the
		// measured latency includes every retry pass.
		s.results.DropRetransmits++
		p := &s.packets[pid]
		p.stage = 0
		s.agenda.push(event{
			time: s.now + s.cfg.RetransmitDelay,
			kind: evArrival,
			pkt:  pid,
			inst: s.routeFlat[s.chainOff[p.reqIndex]],
		})
		return
	}
	s.live--
	s.freePacket(pid)
}

// startService begins serving the packet at inst and schedules completion.
func (s *simulation) startService(inst *instance, iid, pid int32) {
	inst.busy = pid
	inst.serviceStart = s.now
	d := s.cfg.ServiceDist.sample(inst.stream, inst.mu)
	s.agenda.push(event{time: s.now + d, kind: evService, inst: iid, reqIndex: inst.epoch})
}

// complete finishes the in-service packet of inst and advances it. epoch
// guards against stale completions: when an instance fails mid-service its
// epoch is bumped, so the already-scheduled evService for the failed packet
// arrives with an outdated epoch and is ignored (the agenda has no removal).
// Without faults every epoch is 0, preserving historical event streams.
func (s *simulation) complete(iid int32, epoch int32) {
	inst := &s.instances[iid]
	if inst.epoch != epoch || inst.busy < 0 {
		return
	}
	pid := inst.busy
	inst.busyTime += overlap(inst.serviceStart, s.now, s.cfg.Warmup, s.cfg.Horizon)
	if s.ctrlOn {
		inst.ctrlBusy += s.now - inst.serviceStart
	}
	inst.notePopulation(s.now, s.cfg.Warmup, s.cfg.Horizon, -1)
	if s.packets[pid].visitStart >= s.cfg.Warmup {
		inst.visits.Add(s.now - s.packets[pid].visitStart)
	}
	inst.busy = -1
	if inst.qlen > 0 {
		s.startService(inst, iid, inst.dequeue())
	}
	s.advance(pid)
}

// advance moves a finished packet to its next stage, delivery check, or
// retransmission.
func (s *simulation) advance(pid int32) {
	p := &s.packets[pid]
	ri := p.reqIndex
	r := &s.requests[ri]
	if int(p.stage)+1 < len(r.Chain) {
		p.stage++
		off := s.chainOff[ri] + p.stage
		// An inter-node hop costs the constant LinkDelay, so its arrival
		// joins the agenda's link FIFO. A zero-latency hop with a drained
		// due-now FIFO is the next pop, so dispatch it directly instead.
		if hop := s.hopFlat[off]; hop != 0 {
			s.agenda.pushLink(event{time: s.now + hop, kind: evArrival, pkt: pid, inst: s.routeFlat[off]})
			return
		}
		if !s.agenda.fifoEmpty() {
			s.agenda.push(event{time: s.now, kind: evArrival, pkt: pid, inst: s.routeFlat[off]})
			return
		}
		s.arrive(pid, s.routeFlat[off])
		return
	}
	// End of chain: delivery check.
	if s.deliveryStreams[ri].Bernoulli(r.DeliveryProb) {
		s.results.Delivered++
		s.live--
		if p.birth >= s.cfg.Warmup {
			lat := s.now - p.birth
			s.results.Latency.Add(lat)
			s.results.LatencySamples = append(s.results.LatencySamples, lat)
			s.perReq[ri].Add(lat)
		}
		s.freePacket(pid)
		return
	}
	// NACK: retransmit from the source immediately (paper Fig. 3).
	s.results.Retransmissions++
	p.stage = 0
	if s.agenda.fifoEmpty() {
		s.arrive(pid, s.routeFlat[s.chainOff[ri]])
		return
	}
	s.agenda.push(event{time: s.now, kind: evArrival, pkt: pid, inst: s.routeFlat[s.chainOff[ri]]})
}

// finalize folds in-flight busy time, normalizes utilizations, and publishes
// the per-instance and per-request aggregates kept out of the hot loop.
func (s *simulation) finalize() {
	s.results.InFlight = s.live
	span := s.cfg.Horizon - s.cfg.Warmup
	// Sized up front, so no append below moves the summaries the Results
	// maps point at.
	s.sums = slices.Grow(s.sums[:0], len(s.instances)+len(s.requests))
	for i := range s.instances {
		inst := &s.instances[i]
		busy := inst.busyTime
		if inst.busy >= 0 {
			busy += overlap(inst.serviceStart, s.cfg.Horizon, s.cfg.Warmup, s.cfg.Horizon)
		}
		s.results.Utilization[inst.key] = busy / span
		inst.notePopulation(s.cfg.Horizon, s.cfg.Warmup, s.cfg.Horizon, 0)
		s.results.MeanJobs[inst.key] = inst.popArea / span
		if inst.dropped > 0 {
			s.results.DroppedByInstance[inst.key] = inst.dropped
		}
		if inst.failureDrops > 0 {
			s.results.FailureDropsByInstance[inst.key] = inst.failureDrops
		}
		if inst.visits.N() > 0 {
			s.sums = append(s.sums, inst.visits)
			s.results.PerInstance[inst.key] = &s.sums[len(s.sums)-1]
		}
	}
	for i := range s.requests {
		s.sums = append(s.sums, s.perReq[i])
		s.results.PerRequest[s.requests[i].ID] = &s.sums[len(s.sums)-1]
	}
	if len(s.nodes) > 0 {
		s.finalizeFaults()
	}
	s.results.Availability = 1
	if s.results.Generated > 0 {
		s.results.Availability = float64(s.results.Delivered) / float64(s.results.Generated)
	}
}

// overlap returns the length of [a,b] ∩ [lo,hi].
func overlap(a, b, lo, hi float64) float64 {
	if a < lo {
		a = lo
	}
	if b > hi {
		b = hi
	}
	if b <= a {
		return 0
	}
	return b - a
}
