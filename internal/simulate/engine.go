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
// NACK-style source retransmission), and a FaultHook can repair the run mid-
// flight — rerouting requests to survivors and booting replacement instances
// — which is how internal/control implements self-healing.
//
// The event loop is allocation-free in steady state and built for raw CPU
// speed: the agenda is a value-typed implicit 4-ary min-heap of 32-byte
// events, fronted by a due-now FIFO that lets the dominant zero-delay stage
// transitions bypass the heap entirely; packets live in a flat arena indexed by int32
// and are recycled through a free list, each instance's waiting room is a
// ring buffer of packet indices, and the latency-sample slice is pre-sized
// from the offered load.  A Simulator can additionally be Reset and re-Run
// so sweeps reuse every backing array across trials.
package simulate

import "math"

// eventKind discriminates scheduler events.
type eventKind int32

const (
	evArrival       eventKind = iota + 1 // packet arrives at a stage's instance
	evService                            // instance finishes its packet
	evSource                             // next external arrival of a request
	evNodeDown                           // a node (and every instance on it) fails
	evNodeUp                             // a node returns to service
	evInstanceReady                      // a replacement instance finishes booting
	evControlTick                        // periodic controller tick (Config.Control)
	evPreempt                            // a correlated-preemption group goes down
	evPreemptNotice                      // advance notice ahead of a preemption
	evStream                             // next streamed-trace arrival (Config.TraceStream)
)

// event is one scheduled occurrence. seq breaks time ties deterministically.
// It is a 32-byte value: the agenda stores events inline, so pushing and
// popping never touches the allocator and comparisons never go through an
// interface. pkt and inst index the simulation's packet arena and instance
// table (-1 when unused). reqIndex is overloaded per kind: the request index
// for evSource, the service epoch for evService (stale completions of a
// failed instance are dropped by epoch mismatch), and the random-fault-chain
// flag for evNodeDown/evNodeUp; for node events inst is the node index.
type event struct {
	time     float64
	seq      uint64
	kind     eventKind
	reqIndex int32 // evSource payload
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
// the 4-ary heap, fronted by a due-now FIFO.
//
// The FIFO exploits the dominant event pattern of the DES: a finished packet
// advancing to a co-located stage is pushed with time exactly equal to the
// current simulated time. Such an event can only be preceded by other events
// with the same time and a smaller sequence number, so appending it to a
// FIFO and comparing the FIFO head against the heap minimum on pop
// preserves the exact (time, seq) pop order while skipping the heap
// entirely — an O(1) append and an O(1) pop for roughly half of all events.
//
// Invariants: every event in now[nhead:] has time == nowTime and the
// segment is in ascending seq order (appends carry the globally increasing
// seq). nowTime is the time of the last event popped while the FIFO was
// empty; it is poisoned to NaN — matching no push — in the one ordering
// where a heap event with a different time overtakes a non-empty FIFO,
// which never happens in the simulator (events are never scheduled in the
// past) but keeps the wrapper correct as a general priority queue. backMin
// and backSeq mirror the heap head's key exactly (+Inf/0 when empty):
// pushes can only lower backMin (a pushed event always carries the largest
// seq, so it never wins a time tie against the resident head) and heap
// pops refresh both — which is what lets the dominant FIFO pop decide the
// race against the heap with two scalar compares and no heap call.
type agenda struct {
	seq     uint64
	n       int     // live event count across FIFO + heap (see size)
	now     []event // due-now FIFO
	nhead   int
	nowTime float64
	backMin float64 // heap head time, +Inf when the heap is empty
	backSeq uint64  // heap head seq
	heap    heapAgenda
}

// reset empties the agenda, retaining every backing array.
func (a *agenda) reset() {
	a.seq = 0
	a.n = 0
	a.now = a.now[:0]
	a.nhead = 0
	a.nowTime = math.NaN()
	a.backMin = math.Inf(1)
	a.backSeq = 0
	a.heap.reset()
}

// push stamps e with the next sequence number and enqueues it.
func (a *agenda) push(e event) {
	a.seq++
	a.n++
	e.seq = a.seq
	if e.time == a.nowTime {
		a.now = append(a.now, e)
		return
	}
	if e.time < a.backMin {
		a.backMin, a.backSeq = e.time, e.seq
	}
	a.heap.push(e)
}

// pushStamped enqueues an event that already carries its (time, seq) stamp —
// the trace replay path. Trace arrivals win every time tie against in-run
// events and order among themselves by row, so replay stamps each trace row
// with its row index from a band below the regular counter (see
// streamSeqBase). The event bypasses the
// due-now FIFO — its low seq would violate the FIFO's ascending-seq
// invariant — and goes straight to the heap, whose pop tie-break against
// the FIFO is exact. Unlike push, the cached head key update must be
// tie-aware: a stamped event can win a time tie against the resident head.
func (a *agenda) pushStamped(e event) {
	a.n++
	if e.time < a.backMin || (e.time == a.backMin && e.seq < a.backSeq) {
		a.backMin, a.backSeq = e.time, e.seq
	}
	a.heap.push(e)
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

// size returns the number of pending events (FIFO + heap). On a streamed
// run this stays O(live packets + arrival sources) regardless of how many
// trace rows the cursor will eventually deliver — the observable behind the
// constant-memory replay guarantee.
func (a *agenda) size() int {
	return a.n
}

// unpop returns e — the most recently popped event, still the global
// minimum — to the heap with its original (time, seq) stamp intact. The
// cluster scheduler uses this to reinsert a peeked event when a cross-
// datacenter injection must run first. e re-enters the heap rather than
// the FIFO (its seq predates the FIFO's remaining entries, which the pop
// tie-break resolves through the exact-peek path), and the cached head key
// is simply e's own: e precedes everything else pending.
func (a *agenda) unpop(e event) {
	a.n++
	a.heap.push(e)
	a.backMin, a.backSeq = e.time, e.seq
}

// pop removes and returns the minimum event; ok is false when empty.
//
// The heap path is pop-as-hole: popping only marks the root as removed, and
// the hole is filled by whatever comes next — a push replaces the root and
// sifts down once (so the steady pop/push cycle of the DES pays a single
// sift-down per event, with no sift-up and no append), or a later pop
// finishes the deferred removal first. The heap's arrangement after a
// replace differs from a pop-then-push arrangement, but (time, seq) is a
// total order, so the pop sequence — the only observable — is identical.
//
// While the root is holed the new heap minimum is unknown, so backMin
// demotes from exact to a lower bound (the popped key). The FIFO fast path
// stays sound — a FIFO head strictly below a lower bound is certainly below
// the real head — and the rare tie falls through to an exact peek, which
// fills the hole and re-tightens the bound.
func (a *agenda) pop() (event, bool) {
	h := &a.heap
	if a.nhead < len(a.now) {
		f := &a.now[a.nhead]
		if f.time < a.backMin || (f.time == a.backMin && f.seq < a.backSeq) {
			e := *f
			a.nhead++
			if a.nhead == len(a.now) {
				a.now = a.now[:0]
				a.nhead = 0
			}
			a.n--
			return e, true
		}
		// The bound says the heap head may precede the FIFO's: resolve
		// exactly. peek fills any hole, making the head (and bound) exact.
		b := h.peek()
		if b == nil || eventBefore(f, b) {
			if b != nil {
				a.backMin, a.backSeq = b.time, b.seq
			} else {
				a.backMin, a.backSeq = math.Inf(1), 0
			}
			e := *f
			a.nhead++
			if a.nhead == len(a.now) {
				a.now = a.now[:0]
				a.nhead = 0
			}
			a.n--
			return e, true
		}
		// Heap first: pop it. If its time differs from the FIFO's, poison
		// nowTime so later pushes cannot break the FIFO's time homogeneity.
		e := h.pop()
		a.backMin, a.backSeq = h.head()
		if e.time != a.nowTime {
			a.nowTime = math.NaN()
		}
		a.n--
		return e, true
	}
	if h.holed {
		h.fill()
	}
	if len(h.events) == 0 {
		return event{}, false
	}
	top := h.events[0]
	h.holed = true
	a.backMin, a.backSeq = top.time, top.seq
	a.nowTime = top.time
	a.n--
	return top, true
}

// fifoEmpty reports whether the due-now FIFO is drained. While it is, an
// event pushed at the current time is guaranteed (up to measure-zero time
// ties against future-scheduled events) to be the very next pop, so the
// simulator may dispatch its handler directly instead of round-tripping
// the event through the agenda.
func (a *agenda) fifoEmpty() bool {
	return a.nhead >= len(a.now)
}

// heapAgenda is a value-typed implicit 4-ary min-heap on (time, seq).
//
// A 4-ary layout halves the tree depth of the binary heap: sift-down does
// one comparison chain over four children per level, which trades a few
// comparisons for far fewer cache lines touched, a net win on event
// populations that fit L1/L2.
//
// holed marks a deferred removal: the root has been popped (the agenda
// returned events[0] to the caller) but the slot still holds the stale
// value. The next push fills the hole by sifting the new event down from
// the root — one sift-down instead of a sift-down plus a sift-up — and
// every other entry point (peek, head, and the agenda before pop) calls
// fill first.
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
// hole and sifted down.
func (h *heapAgenda) fill() {
	if !h.holed {
		return
	}
	h.holed = false
	n := len(h.events) - 1
	last := h.events[n]
	h.events = h.events[:n]
	if n > 0 {
		h.siftDownRoot(last)
	}
}

// peek returns the minimum event without removing it, nil when empty. The
// pointer is invalidated by the next push or pop.
func (h *heapAgenda) peek() *event {
	h.fill()
	if len(h.events) == 0 {
		return nil
	}
	return &h.events[0]
}

// head returns the minimum event's (time, seq) key, (+Inf, 0) when empty.
func (h *heapAgenda) head() (float64, uint64) {
	h.fill()
	if len(h.events) == 0 {
		return math.Inf(1), 0
	}
	return h.events[0].time, h.events[0].seq
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

// pop removes and returns the minimum event; the caller checks non-empty
// and that no hole is pending (fill).
func (h *heapAgenda) pop() event {
	n := len(h.events)
	top := h.events[0]
	last := h.events[n-1]
	h.events = h.events[:n-1]
	if n > 1 {
		h.siftDownRoot(last)
	}
	return top
}
