// Package simulate is a packet-level discrete-event simulator for placed and
// scheduled VNF chains. It is the trace-driven counterpart of the analytic
// queueing model: Poisson (or trace-fed) packet arrivals per request, FCFS
// exponential service at every service instance, inter-node link latency
// from the placement, NACK-style loss feedback with source retransmission,
// and optional finite buffers with per-instance drop accounting (discard or
// NACK-style drop retransmission, see DropPolicy).  Comparing its empirical
// latencies against Eq. 12 validates the open-Jackson-network model end to
// end.
//
// A FaultPlan additionally injects node failures (random MTBF/MTTR chains
// and/or scheduled outages): a failed node takes every instance on it out of
// service, packets caught there follow the FailurePolicy (crash loss or
// NACK-style source retransmission), and a Controller can repair the run
// mid-flight — rerouting requests to survivors and booting replacement instances
// — which is how internal/control implements self-healing.
//
// Every external arrival takes one path: a cursor of time-ordered (time,
// request) rows — the caller's Config.Arrivals, or the superposition of the
// admitted requests' Poisson processes — of which exactly one row is
// pending in the agenda at a time, re-pulled after each dispatch.
//
// There is one event loop, drain: Run, RunContext and the cluster's
// DrainUntil all pop the agenda through it, each event copied out once and
// dispatched, up to a time bound and an event budget (RunContext drains in
// CtxCheckInterval chunks to poll its context). The single-event stepping
// primitives stage the next event instead, and drain consumes a staged
// event first, so the two styles mix freely within one run.
//
// The event loop is allocation-free in steady state and built for raw CPU
// speed: the agenda splits its 32-byte events into lanes that are each
// sorted by construction — a due-now FIFO for zero-delay stage transitions,
// a link FIFO for hops at the constant link latency, a one-event slot for
// the pending arrival row — and keeps service completions and fault and
// control events in a small value-typed 4-ary main heap; pop takes the
// earliest lane head. Packets live in a flat arena indexed by int32 and are
// recycled through a free list, each instance's waiting room is a ring
// buffer of packet indices, and the latency-sample slice is pre-sized from
// the offered load.  A Simulator can additionally be Reset and re-Run
// so sweeps reuse every backing array across trials.
package simulate

import "math"

// eventKind discriminates scheduler events.
type eventKind int32

const (
	evArrival       eventKind = iota + 1 // packet arrives at a stage's instance
	evService                            // instance finishes its packet
	evExternal                           // next external arrival row
	evNodeDown                           // a node (and every instance on it) fails
	evNodeUp                             // a node returns to service
	evInstanceReady                      // a replacement instance finishes booting
	evControlTick                        // periodic controller tick (Config.ControlInterval)
	evPreempt                            // a correlated-preemption group goes down
	evPreemptNotice                      // advance notice ahead of a preemption
)

// event is one scheduled occurrence. seq breaks time ties deterministically.
// It is a 32-byte value: the agenda stores events inline, so pushing and
// popping never touches the allocator and comparisons never go through an
// interface. pkt and inst index the simulation's packet arena and instance
// table (-1 when unused). reqIndex is overloaded per kind: the request index
// for evExternal, the service epoch for evService (stale completions of a
// failed instance are dropped by epoch mismatch), and the random-fault-chain
// flag for evNodeDown/evNodeUp; for node events inst is the node index.
type event struct {
	time     float64
	seq      uint64
	kind     eventKind
	reqIndex int32 // evExternal payload
	pkt      int32 // evArrival payload (packet arena index)
	inst     int32 // evArrival, evService payload (instance table index)
}

// eventBefore is the agenda's total order. seq is unique per push, so the
// pop sequence is fully determined by the pushes: any arrangement of the
// heap pops the same events in the same order (the seed-determinism goldens
// pin that).
func eventBefore(a, b *event) bool {
	return a.time < b.time || (a.time == b.time && a.seq < b.seq)
}

// agenda is the simulator's pending-event queue: a seq-stamping wrapper over
// four lanes. Each lane is kept sorted by (time, seq) on its own, and pop
// returns the minimum over the lane heads, so the pop sequence is exactly
// the (time, seq) order of one priority queue holding every event.
//
//   - now, the due-now FIFO. A finished packet advancing to a co-located
//     stage is pushed with time exactly equal to the current simulated
//     time. Such an event can only be preceded by other events with the
//     same time and a smaller seq, so it is appended in O(1) and popped in
//     O(1). Every push whose time equals nowTime lands here, whatever its
//     kind.
//   - link, the link FIFO: hop arrivals at now + LinkDelay (pushLink). The
//     paper charges one constant latency per inter-node hop (Eq. 16) and
//     the clock never goes back, so these times are non-decreasing in push
//     order, and push order is seq order: appending to a ring keeps the lane
//     sorted without a single comparison. linkLast guards the argument — a
//     push earlier than the ring's tail goes to the main heap instead.
//   - row, the arrival slot: the one pending external arrival row
//     (pushStamped). The per-request arrival processes wait in the arrival
//     cursor's own merge heap, so the agenda holds one row however many
//     requests there are, and the row skips the main heap's push and
//     sift-down. A stamped push that finds the slot taken goes to the main
//     heap.
//   - heap, the main heap: service completions, fault and control events,
//     cluster unpops and fallbacks — a few dozen events on the paper's
//     200-request instance.
//
// Invariants: every event in now[nhead:] has time == nowTime and the
// segment is in ascending seq order (appends carry the globally increasing
// seq). nowTime is the time of the last event popped while the FIFO was
// empty; it is poisoned to NaN — matching no push — in the one ordering
// where a back-lane event with a different time overtakes a non-empty FIFO,
// which never happens in the simulator (events are never scheduled in the
// past) but keeps the wrapper correct as a general priority queue. backMin
// and backSeq are a lower bound on the earliest event of the three back
// lanes (link, row, heap; +Inf/0 when all are empty): pushes can only lower
// it (a pushed event carries the largest seq, so it never wins a time tie
// against a resident event) and a back-lane pop sets it to the popped key,
// which precedes everything still pending. That bound is what lets the
// due-now pop decide the race against all three back lanes with two scalar
// compares; only a tie falls through to an exact look at the lane heads.
type agenda struct {
	seq     uint64
	n       int     // live event count across all lanes (see size)
	now     []event // due-now FIFO
	nhead   int
	nowTime float64
	backMin float64 // lower bound on the back lanes' earliest time
	backSeq uint64  // seq of that bound

	link     []event // link FIFO: ring of power-of-two length
	lhead    int     // ring index of the link head
	llen     int     // events in the ring
	linkLast float64 // time of the last ring push, -Inf after reset

	row    event // arrival slot: the pending external arrival row
	hasRow bool

	heap heapAgenda // main heap: everything else
}

// Back lanes, as pop names them.
const (
	laneNone = iota
	laneLink
	laneRow
	laneHeap
)

// reset empties the agenda, retaining every backing array.
func (a *agenda) reset() {
	a.seq = 0
	a.n = 0
	a.now = a.now[:0]
	a.nhead = 0
	a.nowTime = math.NaN()
	a.backMin = math.Inf(1)
	a.backSeq = 0
	a.lhead = 0
	a.llen = 0
	a.linkLast = math.Inf(-1)
	a.hasRow = false
	a.heap.reset()
}

// reserve gives the main heap room for events pending events; a reused
// agenda that already fits allocates nothing. The heap still grows by
// append past its reservation.
func (a *agenda) reserve(events int) {
	if cap(a.heap.events) < events {
		a.heap.events = make([]event, 0, events)
	}
}

// stamp gives e the next sequence number and counts it. It reports true
// when e is due now and has been appended to the due-now FIFO; otherwise
// the caller places e in a back lane, and the cached back bound already
// accounts for it.
func (a *agenda) stamp(e *event) bool {
	a.seq++
	a.n++
	e.seq = a.seq
	if e.time == a.nowTime {
		a.now = append(a.now, *e)
		return true
	}
	if e.time < a.backMin {
		a.backMin, a.backSeq = e.time, e.seq
	}
	return false
}

// push stamps e with the next sequence number and enqueues it on the main
// heap (or the due-now FIFO).
func (a *agenda) push(e event) {
	if a.stamp(&e) {
		return
	}
	a.heap.push(e)
}

// pushLink stamps a link-delayed hop arrival and appends it to the link
// FIFO. A push earlier than the ring's tail — impossible while every hop is
// the run's constant LinkDelay and the clock only moves forward — goes to
// the main heap, so the ring stays sorted whatever the caller does.
func (a *agenda) pushLink(e event) {
	if a.stamp(&e) {
		return
	}
	if e.time < a.linkLast {
		a.heap.push(e)
		return
	}
	a.linkLast = e.time
	if a.llen == len(a.link) {
		a.growLink()
	}
	a.link[(a.lhead+a.llen)&(len(a.link)-1)] = e
	a.llen++
}

// growLink doubles the link ring (16 slots at first), unrolling it so the
// head sits at index 0.
func (a *agenda) growLink() {
	grown := make([]event, max(16, 2*len(a.link)))
	for i := 0; i < a.llen; i++ {
		grown[i] = a.link[(a.lhead+i)&(len(a.link)-1)]
	}
	a.link = grown
	a.lhead = 0
}

// pushStamped enqueues an event that already carries its (time, seq) stamp —
// the external arrival path — in the arrival slot, or in the main heap when
// the slot is taken. Arrival rows win every time tie against in-run events
// and order among themselves by row, so each row is stamped with its row
// index from a band below the regular counter (see streamSeqBase). The
// event bypasses the due-now FIFO — its low seq would violate the FIFO's
// ascending-seq invariant — and pop's tie-break between the back lanes is
// exact. Unlike push, the cached bound update must be tie-aware: a stamped
// event can win a time tie against the resident head.
func (a *agenda) pushStamped(e event) {
	a.n++
	if e.time < a.backMin || (e.time == a.backMin && e.seq < a.backSeq) {
		a.backMin, a.backSeq = e.time, e.seq
	}
	if a.hasRow {
		a.heap.push(e)
		return
	}
	a.row, a.hasRow = e, true
}

// startSeqAt raises the regular sequence counter so that all subsequently
// pushed events stamp above base, reserving [1, base] for pushStamped.
// Sequence values are unobservable — only the relative pop order matters —
// so this cannot perturb a run that never calls pushStamped.
func (a *agenda) startSeqAt(base uint64) {
	if a.seq < base {
		a.seq = base
	}
}

// size returns the number of pending events across all lanes. It stays
// O(live packets) regardless of how many arrival rows the cursor will
// eventually deliver — the observable behind the constant-memory replay
// guarantee.
func (a *agenda) size() int {
	return a.n
}

// unpop returns e — the most recently popped event, still the global
// minimum — to the main heap with its original (time, seq) stamp intact.
// The cluster scheduler uses this to reinsert a peeked event when a cross-
// datacenter injection must run first. e re-enters the main heap whatever
// lane it came from (its seq predates the FIFOs' entries, which the pop
// tie-break resolves exactly), and the cached bound is simply e's own key:
// e precedes everything else pending.
func (a *agenda) unpop(e event) {
	a.n++
	a.heap.push(e)
	a.backMin, a.backSeq = e.time, e.seq
}

// pop removes and returns the minimum event; ok is false when empty.
//
// The main heap pops as a hole: popping only marks the root as removed, and
// the hole is filled by whatever comes next — a push into the heap replaces
// the root and sifts down once (so a service completion that starts the
// next packet pays a single sift-down, with no sift-up and no append), or
// the next pop finishes the deferred removal first. The heap's arrangement after a
// replace differs from a pop-then-push arrangement, but (time, seq) is a
// total order, so the pop sequence — the only observable — is identical.
//
// The due-now FIFO wins outright when its head precedes the back bound;
// otherwise pop fills any pending hole and takes the earliest of the back
// lanes' heads, which a non-empty FIFO's head still has to beat exactly.
func (a *agenda) pop() (event, bool) {
	due := a.nhead < len(a.now)
	if due {
		f := &a.now[a.nhead]
		if f.time < a.backMin || (f.time == a.backMin && f.seq < a.backSeq) {
			return a.popNow(), true
		}
	}
	lane, head := laneNone, (*event)(nil)
	if a.llen > 0 {
		lane, head = laneLink, &a.link[a.lhead]
	}
	if a.hasRow && (head == nil || eventBefore(&a.row, head)) {
		lane, head = laneRow, &a.row
	}
	if a.heap.holed {
		a.heap.fill()
	}
	if len(a.heap.events) > 0 {
		if h := &a.heap.events[0]; head == nil || eventBefore(h, head) {
			lane, head = laneHeap, h
		}
	}
	if due {
		// The bound tied the FIFO head; the back head is now exact.
		if head == nil || eventBefore(&a.now[a.nhead], head) {
			if head == nil {
				a.backMin, a.backSeq = math.Inf(1), 0
			} else {
				a.backMin, a.backSeq = head.time, head.seq
			}
			return a.popNow(), true
		}
		// Back lane first. If its time differs from the FIFO's, poison
		// nowTime so later pushes cannot break the FIFO's time homogeneity.
		e := a.popLane(lane)
		if e.time != a.nowTime {
			a.nowTime = math.NaN()
		}
		return e, true
	}
	if head == nil {
		return event{}, false
	}
	e := a.popLane(lane)
	a.nowTime = e.time
	return e, true
}

// popNow removes the due-now FIFO's head; the caller checks non-empty.
func (a *agenda) popNow() event {
	e := a.now[a.nhead]
	a.nhead++
	if a.nhead == len(a.now) {
		a.now = a.now[:0]
		a.nhead = 0
	}
	a.n--
	return e
}

// popLane removes the head of a non-empty back lane — the main heap's root
// is left as a hole — and sets the back bound to its key, which precedes every
// event still pending.
func (a *agenda) popLane(lane int) event {
	var e event
	switch lane {
	case laneLink:
		e = a.link[a.lhead]
		a.lhead = (a.lhead + 1) & (len(a.link) - 1)
		a.llen--
	case laneRow:
		e = a.row
		a.hasRow = false
	default:
		e = a.heap.events[0]
		a.heap.holed = true
	}
	a.backMin, a.backSeq = e.time, e.seq
	a.n--
	return e
}

// fifoEmpty reports whether the due-now FIFO is drained. While it is, an
// event pushed at the current time is guaranteed (up to measure-zero time
// ties against future-scheduled events) to be the very next pop, so the
// simulator may dispatch its handler directly instead of round-tripping
// the event through the agenda.
func (a *agenda) fifoEmpty() bool {
	return a.nhead >= len(a.now)
}

// heapAgenda is a value-typed implicit 4-ary min-heap on (time, seq): the
// agenda's main heap.
//
// A 4-ary layout halves the tree depth of the binary heap: sift-down does
// one comparison chain over four children per level, which trades a few
// comparisons for far fewer cache lines touched, a net win on event
// populations that fit L1/L2.
//
// holed marks a deferred removal: the root has been popped (the agenda
// returned events[0] to the caller) but the slot still holds the stale
// value. The next push fills the hole by sifting the new event down from
// the root — one sift-down instead of a sift-down plus a sift-up — and the
// agenda fills a holed heap before it reads the heap's head on pop.
type heapAgenda struct {
	events []event
	holed  bool
}

// reset empties the heap, retaining its backing array for the next run.
func (h *heapAgenda) reset() {
	h.events = h.events[:0]
	h.holed = false
}

// fill finishes a deferred root removal: the last element is moved into the
// hole and sifted down. The caller checks holed.
func (h *heapAgenda) fill() {
	h.holed = false
	n := len(h.events) - 1
	last := h.events[n]
	h.events = h.events[:n]
	if n > 0 {
		h.siftDownRoot(last)
	}
}

// push inserts the (already seq-stamped) event: into a pending root hole
// with one sift-down when there is one, otherwise appended and sifted up.
func (h *heapAgenda) push(e event) {
	if h.holed {
		h.holed = false
		h.siftDownRoot(e)
		return
	}
	h.events = append(h.events, e)
	// Sift up: 4-ary parent of i is (i-1)/4.
	i := len(h.events) - 1
	for i > 0 {
		parent := (i - 1) >> 2
		p := &h.events[parent]
		if p.time < e.time || (p.time == e.time && p.seq < e.seq) {
			break
		}
		h.events[i] = *p
		i = parent
	}
	h.events[i] = e
}

// siftDownRoot writes e into the (vacant) root slot, sinking it to its
// heap position. len(h.events) >= 1.
func (h *heapAgenda) siftDownRoot(e event) {
	ev := h.events
	n := len(ev)
	// Sift down: children of i are 4i+1 … 4i+4.
	i := 0
	for {
		child := i<<2 + 1
		if child >= n {
			break
		}
		// Select the minimum of up to four children.
		end := child + 4
		if end > n {
			end = n
		}
		m := child
		mt, ms := ev[child].time, ev[child].seq
		for c := child + 1; c < end; c++ {
			ct, cs := ev[c].time, ev[c].seq
			if ct < mt || (ct == mt && cs < ms) {
				m, mt, ms = c, ct, cs
			}
		}
		if e.time < mt || (e.time == mt && e.seq < ms) {
			break
		}
		ev[i] = ev[m]
		i = m
	}
	ev[i] = e
}
