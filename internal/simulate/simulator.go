package simulate

import (
	"cmp"
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

// ArrivalSource is a pull-based external arrival process for one request:
// Next returns the first arrival time strictly after the previous one (the
// simulator passes the last arrival it admitted, or 0 at seeding). ok=false
// retires the flow — no further arrivals are generated. The simulator keeps
// exactly one pending event per live source, so memory stays O(#sources)
// regardless of how many arrivals a source will produce. Sources must be
// deterministic for reproducible runs (drive them from rng.Derive streams)
// and are pulled in strictly non-decreasing `after` order; a returned time
// in the past is clamped to the pull time. The workload package's generator
// sources (Poisson, diurnal NHPP, MMPP on/off, log-normal renewal) satisfy
// this interface.
type ArrivalSource interface {
	Next(after float64) (t float64, ok bool)
}

// TraceSource is a forward-only cursor over a time-ordered arrival trace —
// the streaming counterpart of an in-memory Config.Trace. NextArrival
// returns consecutive (time, request) rows in non-decreasing time order;
// ok=false ends the trace, after which Err reports whether it ended cleanly
// or on a malformed row. workload.TraceStream (a CSV cursor) and
// workload.MergedStream (a live generator superposition) both satisfy it.
type TraceSource interface {
	NextArrival() (t float64, id model.RequestID, ok bool)
	Err() error
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

	// Trace optionally replays recorded external arrivals instead of
	// generating Poisson arrivals online. It is replayed like TraceStream,
	// its rows walked in stable time order, so a trace that is not sorted
	// replays in (time, row) order; a row at a negative or NaN time fails
	// the run. Mutually exclusive with TraceStream and Sources.
	Trace *workload.Trace

	// TraceStream replays external arrivals from a forward-only cursor
	// instead of an in-memory Trace: exactly one trace arrival is pending
	// at any moment, so a 10M-row trace runs in constant memory. Replay is
	// bit-identical to handing the same (time-ordered) trace to Trace. Rows
	// naming unknown or inject-only requests are skipped; rows at or past
	// the horizon end the replay. A cursor error (malformed or out-of-order
	// row) stops the stream and fails the run at Run/Finalize. Mutually
	// exclusive with Trace and Sources.
	TraceStream TraceSource

	// Sources overrides the arrival process of individual requests: a
	// request whose ID maps to a non-nil ArrivalSource draws its external
	// arrivals from it instead of the flat-Poisson process at Rate. Requests
	// absent from the map (or mapped to nil) keep the Poisson default, so a
	// nil or empty map is bit-identical to historical runs. IDs not
	// scheduled in this simulation are ignored, mirroring trace replay.
	// Mutually exclusive with Trace and TraceStream.
	Sources map[model.RequestID]ArrivalSource

	// ExpectedArrivals hints the total number of external arrivals the run
	// will admit. It only sizes the up-front LatencySamples reservation
	// (capped at 2 Mi samples), for runs whose arrival count is unknowable
	// up front (TraceStream replay, custom Sources). 0 falls back to the
	// offered-rate estimate Σ Rate·(Horizon−Warmup) over the scheduled
	// requests. Ignored when Trace is set (its length is used instead).
	ExpectedArrivals int

	// InjectOnly lists requests whose external arrivals are supplied by the
	// caller through Simulator.Inject instead of being generated from Rate
	// (or read from Trace). The requests still participate in scheduling and
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

	// FaultHook, if non-nil, is notified of node transitions mid-run and
	// may repair the routing via the RepairControl it receives. Ignored
	// without a FaultPlan. A hook additionally implementing
	// PreemptionNoticeHook receives advance notice of correlated
	// preemptions (see PreemptionPlan.LeadTime).
	FaultHook FaultHook

	// Control, if non-nil, receives a controller tick every ControlInterval
	// simulated seconds and may reshape the deployment through the
	// ControlPlane it is handed — the online control-plane entry point (see
	// internal/control). Requires a Placement and a positive finite
	// ControlInterval. nil keeps every event and RNG stream bit-identical
	// to historical runs.
	Control ControlHook

	// ControlInterval is the controller tick period (simulated seconds).
	// Required (positive, finite) when Control is set; ignored otherwise.
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
	// deterministic admission shedding (RepairControl.SetShedFraction):
	// offered — they count toward Generated and depress Availability — but
	// never admitted into the network. Always zero without a ControlHook.
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

	// Control-plane utilization window (maintained only when Config.Control
	// is set, see simulation.ctrlOn): ctrlBusy accumulates raw busy time —
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

	arrivalStreams  []*rng.Stream
	deliveryStreams []*rng.Stream

	// perReq accumulates delivered latency per request index; finalize
	// publishes it as Results.PerRequest.
	perReq []stats.Summary

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
	// seedArrivals generates no traffic for it.
	injectOnly []bool

	// sources[i] is request i's arrival process: the caller's override from
	// Config.Sources, or a pointer into the poisson arena — the flat-Poisson
	// default over arrivalStreams[i], bit-identical to the historical inline
	// draw. Unused in trace modes.
	sources []ArrivalSource
	poisson []poissonSource

	// Trace replay state (see trace below): streamRow stamps each admitted
	// row with its position in the low sequence band (see streamSeqBase),
	// streamErr latches the first cursor failure — the stream stops pulling
	// and Run/Finalize surface it after the drain.
	streamRow uint64
	streamErr error

	// packets is the flat packet arena; packetFree recycles indices. The
	// simulation is single-goroutine, so a plain slice beats sync.Pool: no
	// synchronization, and recycling order is deterministic.
	packets    []packet
	packetFree []int32

	// Fault state, populated only when cfg.FaultPlan != nil (see fault.go).
	nodes []nodeState
	// nextInst tracks, per VNF ordinal, the next free instance index for
	// RepairControl.AddInstance (base indices [0, M_f) are reserved).
	nextInst []int

	// Control-plane state, inert unless cfg.Control is set (ctrlOn) or a
	// hook enables shedding. lastTick anchors the per-tick observation
	// window; shedFrac/shedAcc implement deterministic fractional admission
	// shedding (see shedNext).
	ctrlOn   bool
	lastTick float64
	shedFrac float64
	shedAcc  float64
	// handle is the one RepairControl/ControlPlane every hook callback
	// receives (see repairControl).
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
	// behind admitted, chainOff and routeFlat. trace is the cursor being
	// replayed, Config.TraceStream or traceRows over Config.Trace (nil
	// without trace replay).
	ix        model.Index
	admitted  []int32
	tables    []int32
	trace     TraceSource
	traceRows sliceCursor
}

// poissonSource is the default ArrivalSource: the flat-Poisson process of
// the paper, drawing inter-arrival gaps from the request's cached
// "arrivals/<id>" stream. Instances live in the simulation's poisson arena
// so Reset reuse allocates nothing, and Next performs the exact arithmetic
// of the historical inline draw — which is why expressing the default path
// through the interface leaves every golden fingerprint untouched.
type poissonSource struct {
	stream *rng.Stream
	rate   float64
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

// RunContext is Run with cancellation: the event loop polls ctx every
// CtxCheckInterval events and aborts with ctx.Err() when it fires. A
// context.Background() run is bit-identical to Run — the check never
// perturbs RNG streams or event order, it only decides whether to keep
// going.
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
	if cfg.Trace != nil && cfg.TraceStream != nil {
		return errors.New("simulate: Trace and TraceStream are mutually exclusive")
	}
	if len(cfg.Sources) > 0 && (cfg.Trace != nil || cfg.TraceStream != nil) {
		return errors.New("simulate: Sources cannot be combined with trace replay (Trace/TraceStream)")
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
	if cfg.Control != nil {
		if cfg.Placement == nil {
			return errors.New("simulate: Control requires a Placement (the control plane acts per node)")
		}
		if !(cfg.ControlInterval > 0) || math.IsInf(cfg.ControlInterval, 1) {
			return fmt.Errorf("simulate: Control requires a positive finite ControlInterval, got %v", cfg.ControlInterval)
		}
	}
	// Partial validation: requests absent from the schedule were rejected by
	// admission control and simply generate no traffic.
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
	s.ctrlOn = cfg.Control != nil
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
	s.arrivalStreams = s.arrivalStreams[:0]
	s.deliveryStreams = s.deliveryStreams[:0]
	s.perReq = s.perReq[:0]
	s.injectOnly = s.injectOnly[:0]
	s.sources = s.sources[:0]
	s.poisson = s.poisson[:0]
	s.trace = cfg.TraceStream
	if cfg.Trace != nil {
		s.traceRows.reset(cfg.Trace.Arrivals)
		s.trace = &s.traceRows
	}
	s.streamRow = 0
	s.streamErr = nil
	// Fault state is truncated, not dropped: buildFaults recycles the node
	// table (and each node's instances slice), so failure-churn sweeps
	// reuse memory like the packet arena does.
	s.nodes = s.nodes[:0]
	s.nextInst = s.nextInst[:0]
	s.resetResults()
	if err := s.build(); err != nil {
		return err
	}
	s.presizeSamples()
	sim.ready = true
	return nil
}

// Run executes the run prepared by the preceding Reset. The returned Results
// aliases the simulator's buffers and is valid until the next Reset.
func (sim *Simulator) Run() (*Results, error) {
	return sim.RunContext(context.Background())
}

// CtxCheckInterval is the number of events the loop processes between two
// context polls in RunContext: a cancelled run stops within at most this
// many events of the cancellation. The poll is amortized so heavily that it
// is invisible in the event-loop benchmarks; contexts that can never be
// cancelled (Done() == nil, e.g. context.Background()) skip it entirely.
const CtxCheckInterval = 4096

// RunContext executes the run prepared by the preceding Reset, aborting
// with ctx.Err() if ctx is cancelled mid-run (the Results is then nil and
// the simulator needs a fresh Reset). The returned Results aliases the
// simulator's buffers and is valid until the next Reset.
//
// RunContext is built on the stepping primitives' machinery (start, peel,
// dispatch), so a run that was partially advanced with ProcessNextEvent may
// be finished with RunContext — the remaining events process identically.
func (sim *Simulator) RunContext(ctx context.Context) (*Results, error) {
	if !sim.ready {
		return nil, errors.New("simulate: Run requires a successful Reset first")
	}
	sim.ready = false
	s := &sim.s
	s.start()
	if err := s.loop(ctx); err != nil {
		return nil, err
	}
	if s.streamErr != nil {
		return nil, s.streamErr
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
// horizon) in one tight loop and returns the number of events processed.
// It is the batch counterpart of ProcessNextEvent for window-based external
// schedulers (see internal/cluster's conservative-window driver): draining a
// datacenter to a barrier costs one call — no per-event staging round-trips,
// no exported-method dispatch in the hot loop — while popping the exact same
// (time, seq) event order as a ProcessNextEvent loop would.
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
	if h := s.cfg.Horizon; t > h {
		t = h
	}
	if max <= 0 {
		max = math.MaxInt
	}
	n := 0
	// Consume any staged (peeked) event up front so the hot loop below pops
	// the agenda directly — one call layer and one event copy fewer per
	// event than going through peel.
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
	if s.streamErr != nil {
		return nil, s.streamErr
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
// Reset, a flat-Poisson run holds one evSource per live source and a
// trace-replay run holds exactly one evStream — independent of how many
// arrivals the trace or the sources will eventually deliver.
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
	if s.cfg.Control != nil && s.cfg.ControlInterval < s.cfg.Horizon {
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

// peel returns the next event in (time, seq) order, consuming the staged
// event when one is present.
func (s *simulation) peel() (event, bool) {
	if s.hasStaged {
		s.hasStaged = false
		return s.staged, true
	}
	return s.agenda.pop()
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
	for ri := range p.Requests {
		r := &p.Requests[ri]
		// Skip requests the admission controller removed from the schedule.
		if len(s.cfg.Schedule.InstanceOf[r.ID]) == 0 {
			s.admitted = append(s.admitted, -1)
			continue
		}
		s.admitted = append(s.admitted, int32(len(s.requests)))
		s.requests = append(s.requests, *r)
		s.injectOnly = append(s.injectOnly, false)
		s.arrivalStreams = append(s.arrivalStreams, s.namedStream("arrivals/", string(r.ID)))
		s.deliveryStreams = append(s.deliveryStreams, s.namedStream("delivery/", string(r.ID)))
		s.chainOff = append(s.chainOff, int32(len(s.routeFlat)))
		s.perReq = append(s.perReq, stats.Summary{})
		var prevNode model.NodeID
		for stage, f := range s.ix.Chain(ri) {
			fid := r.Chain[stage]
			k, ok := s.cfg.Schedule.Instance(r.ID, fid)
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
	// Arrival sources: the caller's override where one exists, otherwise a
	// poissonSource over the request's arrival stream. The poisson arena is
	// filled completely before interface pointers are taken — appends may
	// move the backing array. Trace modes never consult sources, but wiring
	// them unconditionally keeps build branch-free.
	for i := range s.requests {
		var src ArrivalSource
		if len(s.cfg.Sources) > 0 {
			src = s.cfg.Sources[s.requests[i].ID]
		}
		s.sources = append(s.sources, src)
		s.poisson = append(s.poisson, poissonSource{stream: s.arrivalStreams[i], rate: s.requests[i].Rate})
	}
	for i := range s.sources {
		if s.sources[i] == nil {
			s.sources[i] = &s.poisson[i]
		}
	}
	// The node table serves both fault injection and the control plane
	// (migration and scaling act per node).
	if s.cfg.FaultPlan != nil || s.cfg.Control != nil {
		if err := s.buildFaults(); err != nil {
			return err
		}
	}
	return nil
}

// presizeSamples reserves LatencySamples capacity for the expected number of
// post-warmup deliveries, so the hot loop appends without reallocating. The
// estimate is the aggregate Poisson rate over the measurement window (or the
// trace length), capped to bound the up-front reservation on huge horizons.
func (s *simulation) presizeSamples() {
	const presizeCap = 1 << 21 // 2 Mi samples = 16 MiB, then append growth takes over
	expected := 0
	switch {
	case s.cfg.Trace != nil:
		expected = len(s.cfg.Trace.Arrivals)
	case s.cfg.ExpectedArrivals > 0:
		expected = s.cfg.ExpectedArrivals
	default:
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

// streamSeqBase is where the regular sequence counter starts on a
// trace-replay run. Trace arrivals pop in (time, row) order and win every
// time tie against in-run events: replay stamps each admitted row with its
// position from the band [1, streamSeqBase] and starts the in-run counter
// above it. 2^48 rows dwarfs any replayable trace, and the in-run counter
// keeps 2^64−2^48 values of headroom. Sequence values are unobservable —
// only pop order matters — so raising the base is invisible to every
// measurement.
const streamSeqBase = 1 << 48

// seedArrivals schedules the first external arrival of every request, or
// stages the first trace row.
func (s *simulation) seedArrivals() {
	if s.trace != nil {
		s.agenda.startSeqAt(streamSeqBase)
		s.scheduleNextStream()
		return
	}
	for i := range s.requests {
		if s.injectOnly[i] {
			continue
		}
		s.scheduleNextSource(int32(i), 0)
	}
}

// sliceCursor is the TraceSource behind Config.Trace: it walks a copy of
// the trace's rows sorted stably by time, so a hand-built trace that is not
// sorted replays in (time, row) order.
type sliceCursor struct {
	rows []workload.Arrival
	next int
}

// reset points the cursor at arrivals, reusing its row buffer.
func (c *sliceCursor) reset(arrivals []workload.Arrival) {
	c.rows, c.next = append(c.rows[:0], arrivals...), 0
	slices.SortStableFunc(c.rows, func(a, b workload.Arrival) int { return cmp.Compare(a.Time, b.Time) })
}

func (c *sliceCursor) NextArrival() (float64, model.RequestID, bool) {
	if c.next >= len(c.rows) {
		return 0, "", false
	}
	c.next++
	return c.rows[c.next-1].Time, c.rows[c.next-1].Request, true
}

func (c *sliceCursor) Err() error { return nil }

// scheduleNextSource pulls request i's next external arrival after t from
// its arrival source and stages it as the request's single pending evSource.
// A source reporting ok=false retires the flow; a time at or past the
// horizon ends it. Defensively, a non-monotone or NaN time from a custom
// source is clamped to the pull time — events must never be scheduled in the
// simulator's past.
func (s *simulation) scheduleNextSource(i int32, t float64) {
	next, ok := s.sources[i].Next(t)
	if !ok {
		return
	}
	if !(next >= t) {
		next = t
	}
	if next >= s.cfg.Horizon {
		return
	}
	s.agenda.push(event{time: next, kind: evSource, reqIndex: i})
}

// scheduleNextStream pulls trace rows from the cursor until one is
// admissible — a scheduled, non-inject-only request arriving before the
// horizon — and stages it as a stamped evStream event carrying its row-band
// sequence number, so exactly one trace arrival is ever pending. The first
// row at or past the horizon ends the replay (rows are time-ordered, so
// everything after it is cut off too). A malformed or out-of-order row — a
// Config.Trace row at a negative or NaN time among them — latches
// streamErr, stops the stream, and fails the run once the agenda drains.
func (s *simulation) scheduleNextStream() {
	ts := s.trace
	for {
		t, id, ok := ts.NextArrival()
		if !ok {
			if err := ts.Err(); err != nil && s.streamErr == nil {
				s.streamErr = fmt.Errorf("simulate: trace stream: %w", err)
			}
			return
		}
		if !(t >= s.now) {
			s.streamErr = fmt.Errorf("simulate: trace stream: arrival at %v out of order (clock at %v)", t, s.now)
			return
		}
		if t >= s.cfg.Horizon {
			return
		}
		i, known := s.requestIndex(id)
		if !known || s.injectOnly[i] {
			continue
		}
		s.streamRow++
		s.agenda.pushStamped(event{time: t, seq: s.streamRow, kind: evStream, reqIndex: i})
		return
	}
}

// loop drains the agenda until the horizon, or until ctx fires (checked
// every CtxCheckInterval events; a non-cancellable ctx costs one perfectly
// predicted branch per event).
func (s *simulation) loop(ctx context.Context) error {
	horizon := s.cfg.Horizon
	done := ctx.Done()
	check := CtxCheckInterval
	for {
		if done != nil {
			check--
			if check <= 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
				check = CtxCheckInterval
			}
		}
		e, ok := s.peel()
		if !ok || e.time > horizon {
			break
		}
		s.now = e.time
		s.dispatch(e)
	}
	return nil
}

// dispatch runs one event's handler; s.now has already been advanced to the
// event's time. This is the single dispatch point shared by loop and
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
	case evStream:
		// A trace arrival: admit the packet at its row's time and (row-band)
		// sequence position, never shed — trace arrivals bypass admission
		// shedding — then pull the next row.
		i := e.reqIndex
		s.results.Generated++
		s.live++
		pid := s.newPacket(i, s.now)
		s.arrive(pid, s.routeFlat[s.chainOff[i]])
		s.scheduleNextStream()
	case evSource:
		i := e.reqIndex
		s.results.Generated++
		if s.shedFrac > 0 && s.shedNext() {
			// Admission shed: offered but never admitted. The next arrival
			// is still drawn, so the source stream is unperturbed.
			s.results.Shed++
			s.scheduleNextSource(i, s.now)
			return
		}
		s.live++
		pid := s.newPacket(i, s.now)
		first := s.routeFlat[s.chainOff[i]]
		// A fresh packet enters its first stage at the current time; with
		// the due-now FIFO drained that arrival is the next pop, so call
		// the handler directly and skip the agenda round-trip.
		if s.agenda.fifoEmpty() {
			s.arrive(pid, first)
		} else {
			s.agenda.push(event{time: s.now, kind: evArrival, pkt: pid, inst: first})
		}
		s.scheduleNextSource(i, s.now)
	}
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
		// Zero-latency hop with a drained due-now FIFO: the arrival is the
		// next pop, so dispatch it directly instead of via the agenda.
		if hop := s.hopFlat[off]; hop != 0 || !s.agenda.fifoEmpty() {
			s.agenda.push(event{
				time: s.now + hop,
				kind: evArrival,
				pkt:  pid,
				inst: s.routeFlat[off],
			})
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
			sum := new(stats.Summary)
			*sum = inst.visits
			s.results.PerInstance[inst.key] = sum
		}
	}
	for i := range s.requests {
		sum := new(stats.Summary)
		*sum = s.perReq[i]
		s.results.PerRequest[s.requests[i].ID] = sum
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
