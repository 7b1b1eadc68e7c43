package simulate

import (
	"slices"
	"sort"
	"testing"

	"nfvchain/internal/rng"
)

// refAgenda is the test oracle for the agenda: every pending event kept in a
// slice sorted by (time, seq), with the same seq stamping as agenda.push.
type refAgenda struct {
	seq    uint64
	events []event
}

// insert places an already stamped event at its sorted position.
func (r *refAgenda) insert(e event) {
	i := sort.Search(len(r.events), func(i int) bool { return eventBefore(&e, &r.events[i]) })
	r.events = slices.Insert(r.events, i, e)
}

// push stamps e with the next sequence number and inserts it.
func (r *refAgenda) push(e event) {
	r.seq++
	e.seq = r.seq
	r.insert(e)
}

// pop removes and returns the minimum event; ok is false when empty.
func (r *refAgenda) pop() (event, bool) {
	if len(r.events) == 0 {
		return event{}, false
	}
	e := r.events[0]
	r.events = r.events[1:]
	return e, true
}

// randomEventTime draws a push time from the mixes the differential tests
// share: exact duplicates of the current time (seq tie-breaks), a coarse
// grid (heavy cross-push ties), continuous times possibly below last, the
// near future, and a dense cluster.
func randomEventTime(st *rng.Stream, last float64) float64 {
	switch st.IntN(5) {
	case 0:
		return last
	case 1:
		return float64(st.IntN(8))
	case 2:
		return st.Float64() * 10
	case 3:
		return last + st.Float64()
	default:
		return 5 + st.Float64()*0.001
	}
}

// TestAgendaDifferentialRandom drives the laned agenda and the sorted
// reference with identical randomized workloads and asserts the two pop
// bit-identical event sequences. Plain pushes draw duplicate timestamps,
// equal-time seq ties and occasional times below already-popped ones; link
// pushes carry a constant delay (0, 0.25 or 1 per trial) on a monotone clock,
// with a rare push below the ring's tail that the guard must send to the
// main heap. They interleave with pushes mid-drain, pre-stamped pushes
// from the band below the regular counter (the external arrival path) and
// unpops of the event just popped (the cluster path). The agenda is reused
// across trials, so post-reset state (both FIFOs, the heap arrays, a
// pending root hole) is exercised too.
func TestAgendaDifferentialRandom(t *testing.T) {
	const stampBase = 1 << 20
	delays := []float64{0, 0.25, 1}
	st := rng.New(42)
	var a agenda
	for trial := 0; trial < 60; trial++ {
		a.reset()
		ref := refAgenda{}
		stamped := trial%2 == 1
		if stamped {
			a.startSeqAt(stampBase)
			ref.seq = stampBase
		}
		delay := delays[trial%len(delays)]
		stampSeq := uint64(0)
		last, clock := 0.0, 0.0
		for i := 0; i < 3000; i++ {
			if len(ref.events) > 0 && st.Float64() < 0.45 {
				e, ok := a.pop()
				want, _ := ref.pop()
				if !ok || e != want {
					t.Fatalf("trial %d op %d: pop = %+v %v, reference %+v", trial, i, e, ok, want)
				}
				last, clock = e.time, max(clock, e.time)
				if st.Float64() < 0.1 {
					a.unpop(e)
					ref.insert(e)
				}
				continue
			}
			e := event{time: randomEventTime(st, last), kind: evArrival, pkt: int32(i), inst: int32(trial)}
			switch k := st.IntN(10); {
			case stamped && k < 2:
				stampSeq++
				e.seq = stampSeq
				e.kind = evExternal
				a.pushStamped(e)
				ref.insert(e)
				continue
			case k < 5:
				e.time = clock + delay
				if st.IntN(50) == 0 {
					e.time = clock - 0.5 // below the tail: the guard's heap fallback
				}
				a.pushLink(e)
			default:
				a.push(e)
			}
			ref.push(e)
		}
		if a.size() != len(ref.events) {
			t.Fatalf("trial %d: size %d, reference holds %d", trial, a.size(), len(ref.events))
		}
		for {
			e, ok := a.pop()
			want, wok := ref.pop()
			if ok != wok || e != want {
				t.Fatalf("trial %d drain: pop = %+v %v, reference %+v %v", trial, e, ok, want, wok)
			}
			if !ok {
				break
			}
		}
	}
}

// TestAgendaDifferentialBulk compares the agenda against the sorted
// reference under bulk loads on every lane: a broad uniform spread, a dense
// cluster and an equal-timestamp mass on the main heap, and link pushes on
// a slowly advancing clock that outgrow the ring several times — then a
// drain with pushes interleaved: some at the just-popped time and link hops
// a constant delay later.
func TestAgendaDifferentialBulk(t *testing.T) {
	const delay = 0.5
	st := rng.New(7)
	var a agenda
	for trial := 0; trial < 4; trial++ {
		a.reset()
		a.reserve(64)
		ref := refAgenda{}
		push := func(e event, lane func(event)) {
			lane(e)
			ref.push(e)
		}
		clock := 0.0
		for i := 0; i < 8000; i++ {
			e := event{kind: evService, pkt: int32(i)}
			switch st.IntN(10) {
			case 0, 1:
				e.time = st.Float64() * 1000 // broad uniform spread
			case 2, 3:
				e.time = 500 + st.Float64()*0.01 // dense cluster
			case 4:
				e.time = 7.25 // zero-spread mass: pure seq tie-breaks
			default:
				clock += st.Float64() * 0.01
				e.kind, e.time = evArrival, clock+delay
				push(e, a.pushLink)
				continue
			}
			push(e, a.push)
		}
		drained := 0
		for {
			e, ok := a.pop()
			want, wok := ref.pop()
			if ok != wok || e != want {
				t.Fatalf("trial %d pop %d: agenda %+v %v, reference %+v %v", trial, drained, e, ok, want, wok)
			}
			if !ok {
				break
			}
			drained++
			if drained > 20000 {
				continue // bounded: interleaved pushes would drain forever
			}
			if drained%3 == 0 {
				push(event{kind: evArrival, time: max(clock, e.time) + delay}, a.pushLink)
			}
			if drained%7 == 0 {
				push(event{kind: evService, time: e.time}, a.push) // equal to the just-popped time
			}
		}
	}
}

// TestAgendaLinkGuard pins the link FIFO's fallback: a link push earlier
// than the ring's tail goes to the main heap, and the pops still come out
// in (time, seq) order across the two lanes.
func TestAgendaLinkGuard(t *testing.T) {
	var a agenda
	a.reset()
	a.pushLink(event{time: 5})
	a.pushLink(event{time: 5}) // a tie extends the ring
	a.pushLink(event{time: 3}) // below the tail
	if a.llen != 2 || len(a.heap.events) != 1 {
		t.Fatalf("ring holds %d and main heap %d, want 2 and 1", a.llen, len(a.heap.events))
	}
	for i, want := range []uint64{3, 1, 2} {
		if e, ok := a.pop(); !ok || e.seq != want {
			t.Fatalf("pop %d = %+v ok=%v, want seq %d", i, e, ok, want)
		}
	}
	if _, ok := a.pop(); ok {
		t.Fatal("agenda not empty after three pops")
	}
}

// TestAgendaUnpopEqualTime pins unpop's tie-break: an event returned among
// equal-time events it precedes by seq must pop again before them.
func TestAgendaUnpopEqualTime(t *testing.T) {
	var a agenda
	a.reset()
	// Three events at the same time; seq stamps 1,2,3 assigned by push.
	a.push(event{time: 5})
	a.push(event{time: 5})
	a.push(event{time: 5})
	e1, ok := a.pop()
	if !ok || e1.seq != 1 {
		t.Fatalf("first pop = %+v ok=%v, want seq 1", e1, ok)
	}
	a.unpop(e1)
	e, ok := a.pop()
	if !ok || e.seq != 1 {
		t.Fatalf("pop after unpop = seq %d ok=%v, want seq 1 (time %v)", e.seq, ok, e.time)
	}
}

// TestAgendaGoldenInvariance runs the seed-determinism configs back to back
// on one reused Simulator: the agenda, reset between runs with its lane
// arrays retained, must still reproduce the pinned golden fingerprints.
func TestAgendaGoldenInvariance(t *testing.T) {
	p, sched := steppingFixture(t)
	cases := []struct {
		name string
		cfg  Config
		want uint64
	}{
		{"plain", Config{Horizon: 20, Warmup: 2, Seed: 7}, 0x4af579b7b3270177},
		{"buffered", Config{Horizon: 20, Warmup: 2, Seed: 7, BufferSize: 2}, 0x7c13b08e2cdb0988},
		{"lognormal", Config{Horizon: 15, Warmup: 1, Seed: 3, ServiceDist: ServiceLogNormal}, 0xb81fe93896fa901a},
	}
	sim := NewSimulator()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Problem, cfg.Schedule = p, sched
			if err := sim.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprintResults(res); got != tc.want {
				t.Errorf("fingerprint = %#x, want golden %#x", got, tc.want)
			}
		})
	}
}
