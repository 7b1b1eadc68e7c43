package simulate

import (
	"bytes"
	"context"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/rng"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/workload"
)

// newSliceCursor streams an in-memory trace through the TraceSource
// interface, the cursor Config.Trace replays through.
func newSliceCursor(arrivals []workload.Arrival) *sliceCursor {
	c := new(sliceCursor)
	c.reset(arrivals)
	return c
}

// streamFixture solves the default generated workload and samples a trace —
// the shared fixture of the trace replay tests.
func streamFixture(t *testing.T) (*model.Problem, *model.Schedule, *workload.Trace) {
	t.Helper()
	wcfg := workload.DefaultConfig()
	wcfg.Seed = 11
	wcfg.NumRequests = 60
	p, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduling.ScheduleAll(p, scheduling.RCKK{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := workload.GenerateTrace(p, 20, workload.InterArrivalExponential, 21)
	if err != nil {
		t.Fatal(err)
	}
	return p, sched, tr
}

// Fingerprints of replaying streamFixture's trace, and unsortedTrace of it,
// through Config.Trace, recorded when Config.Trace was still materialized
// into the agenda at seeding time. Every replay path must keep them.
const (
	goldenTraceReplay    = 0x28938ab6f8d34ac8
	goldenUnsortedReplay = 0x4f9b8e217f70a634
)

// TestStreamReplayMatchesMaterialized pins the replay identity: a trace
// replayed through Config.Trace and through a streaming cursor both match
// the fingerprint of the materialized replay the simulator once had.
func TestStreamReplayMatchesMaterialized(t *testing.T) {
	p, sched, tr := streamFixture(t)
	// The subtest is named for the agenda it runs on, the heap.
	t.Run("heap", func(t *testing.T) {
		base := Config{Problem: p, Schedule: sched, Horizon: 20, Warmup: 2, Seed: 7}
		mat := base
		mat.Trace = tr
		resM, err := Run(mat)
		if err != nil {
			t.Fatal(err)
		}
		str := base
		str.TraceStream = newSliceCursor(tr.Arrivals)
		resS, err := Run(str)
		if err != nil {
			t.Fatal(err)
		}
		if fm := fingerprintResults(resM); fm != goldenTraceReplay {
			t.Errorf("Config.Trace fingerprint %#x != golden %#x", fm, uint64(goldenTraceReplay))
		}
		if fs := fingerprintResults(resS); fs != goldenTraceReplay {
			t.Errorf("streamed replay fingerprint %#x != golden %#x", fs, uint64(goldenTraceReplay))
		}
		if resM.Generated != resS.Generated {
			t.Errorf("generated: streamed %d != Config.Trace %d", resS.Generated, resM.Generated)
		}
	})
}

// unsortedTrace hand-builds a trace that is not in time order from tr: rows
// reversed in blocks of seven, every fifth row duplicated at the same time
// for the next request (an exact tie), and rows for an unknown request and
// past the horizon mixed in. Replay pops it in (time, row) order.
func unsortedTrace(tr *workload.Trace) *workload.Trace {
	src := tr.Arrivals
	out := &workload.Trace{Horizon: tr.Horizon}
	for lo := 0; lo < len(src); lo += 7 {
		hi := min(lo+7, len(src))
		for i := hi - 1; i >= lo; i-- {
			a := src[i]
			out.Arrivals = append(out.Arrivals, a)
			if i%5 == 0 {
				tie := src[(i+1)%len(src)]
				out.Arrivals = append(out.Arrivals, workload.Arrival{Time: a.Time, Request: tie.Request})
			}
			if i%97 == 0 {
				out.Arrivals = append(out.Arrivals,
					workload.Arrival{Time: a.Time, Request: "ghost"},
					workload.Arrival{Time: tr.Horizon + a.Time, Request: a.Request})
			}
		}
	}
	return out
}

// TestUnsortedTraceReplay replays a hand-built trace that is not sorted
// through Config.Trace: the rows pop in (time, row) order, as they did when
// the trace was materialized into the agenda, and a row at a negative time
// fails the run instead of running the clock backwards.
func TestUnsortedTraceReplay(t *testing.T) {
	p, sched, tr := streamFixture(t)
	u := unsortedTrace(tr)
	cfg := Config{Problem: p, Schedule: sched, Horizon: 20, Warmup: 2, Seed: 7, Trace: u}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintResults(res); got != goldenUnsortedReplay {
		t.Errorf("unsorted trace fingerprint %#x != golden %#x", got, uint64(goldenUnsortedReplay))
	}
	cfg.Trace = &workload.Trace{Horizon: 20, Arrivals: append([]workload.Arrival{{Time: -1, Request: p.Requests[0].ID}}, u.Arrivals...)}
	if _, err := Run(cfg); err == nil {
		t.Error("trace row at a negative time accepted")
	}
}

// TestStreamReplayFromCSV closes the loop through the file format: a CSV
// written by the trace is replayed via workload.TraceStream and must match
// the Config.Trace replay bit for bit.
func TestStreamReplayFromCSV(t *testing.T) {
	p, sched, tr := streamFixture(t)
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	ts, err := workload.NewTraceStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Problem: p, Schedule: sched, Horizon: 20, Warmup: 2, Seed: 7}
	mat := base
	mat.Trace = tr
	resM, err := Run(mat)
	if err != nil {
		t.Fatal(err)
	}
	str := base
	str.TraceStream = ts
	resS, err := Run(str)
	if err != nil {
		t.Fatal(err)
	}
	if fm, fs := fingerprintResults(resM), fingerprintResults(resS); fm != fs {
		t.Errorf("CSV-streamed fingerprint %#x != Config.Trace %#x", fs, fm)
	}
}

// TestExplicitSourcesMatchGolden pins the second identity: the flat-Poisson
// default routed through the ArrivalSource interface — here spelled out as
// explicit workload.PoissonSource overrides on the very streams the simulator
// derives itself — reproduces the historical golden fingerprint bit for bit.
func TestExplicitSourcesMatchGolden(t *testing.T) {
	const goldenPlain = 0x4af579b7b3270177
	wcfg := workload.DefaultConfig()
	wcfg.Seed = 11
	p, err := workload.Generate(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := scheduling.ScheduleAll(p, scheduling.RCKK{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Problem: p, Schedule: sched, Horizon: 20, Warmup: 2, Seed: 7}
	srcs := make(map[model.RequestID]ArrivalSource, len(p.Requests))
	for _, r := range p.Requests {
		srcs[r.ID] = workload.NewPoisson(r.Rate, rng.Derive(cfg.Seed, "arrivals/"+string(r.ID)))
	}
	cfg.Sources = srcs
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprintResults(res); got != goldenPlain {
		t.Errorf("explicit-sources fingerprint %#x != golden %#x", got, goldenPlain)
	}
}

// syntheticCursor produces n evenly spaced arrivals of one request without
// materializing anything — the O(1)-memory feed of the scale test.
type syntheticCursor struct {
	n  int
	dt float64
	id model.RequestID
	i  int
}

func (c *syntheticCursor) NextArrival() (float64, model.RequestID, bool) {
	if c.i >= c.n {
		return 0, "", false
	}
	c.i++
	return float64(c.i) * c.dt, c.id, true
}

func (c *syntheticCursor) Err() error { return nil }

// TestStreamPendingEventsConstant is the acceptance-scale check: a streamed
// replay of 1M arrivals stages exactly one arrival event at t=0 — the live
// cursor count, not the arrival count — and still generates every packet;
// an in-memory Config.Trace stages one too.
func TestStreamPendingEventsConstant(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-arrival replay")
	}
	const n = 1_000_000
	prob, sched := singleQueueProblem(50, 40000, 1)
	cur := &syntheticCursor{n: n, dt: 30.0 / n, id: prob.Requests[0].ID}
	sim := NewSimulator()
	cfg := Config{Problem: prob, Schedule: sched, Horizon: 60, Warmup: 0, Seed: 5,
		TraceStream: cur, ExpectedArrivals: n}
	if err := sim.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	if got := sim.PendingEvents(); got != 1 {
		t.Fatalf("streamed pending events at t=0 = %d, want 1 (one live cursor)", got)
	}
	res, err := sim.RunContext(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != n {
		t.Fatalf("generated %d of %d streamed arrivals", res.Generated, n)
	}

	// The same replay through Config.Trace stages one arrival too.
	const small = 1000
	tr := &workload.Trace{Horizon: 30}
	for i := 1; i <= small; i++ {
		tr.Arrivals = append(tr.Arrivals, workload.Arrival{Time: float64(i) * 30.0 / small, Request: prob.Requests[0].ID})
	}
	simM := NewSimulator()
	if err := simM.Reset(Config{Problem: prob, Schedule: sched, Horizon: 60, Seed: 5, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if got := simM.PendingEvents(); got != 1 {
		t.Fatalf("Config.Trace pending events at t=0 = %d, want 1 (one live cursor)", got)
	}
}

// errCursor yields a decreasing timestamp pair.
type errCursor struct{ i int }

func (c *errCursor) NextArrival() (float64, model.RequestID, bool) {
	c.i++
	switch c.i {
	case 1:
		return 5, "r", true
	case 2:
		return 1, "r", true
	}
	return 0, "", false
}

func (c *errCursor) Err() error { return nil }

// TestStreamOutOfOrderFails asserts a cursor that goes backwards in time
// aborts the run with an error instead of silently reordering arrivals.
func TestStreamOutOfOrderFails(t *testing.T) {
	prob, sched := singleQueueProblem(50, 150, 1)
	_, err := Run(Config{Problem: prob, Schedule: sched, Horizon: 60, Seed: 5,
		TraceStream: &errCursor{}})
	if err == nil {
		t.Fatal("out-of-order stream accepted")
	}
}

// TestStreamConfigValidation covers the new mutual-exclusion and hint rules.
func TestStreamConfigValidation(t *testing.T) {
	prob, sched := singleQueueProblem(50, 150, 1)
	tr, err := workload.GenerateTrace(prob, 5, workload.InterArrivalExponential, 1)
	if err != nil {
		t.Fatal(err)
	}
	cur := func() TraceSource { return newSliceCursor(tr.Arrivals) }
	srcs := map[model.RequestID]ArrivalSource{
		prob.Requests[0].ID: workload.NewPoisson(50, rng.Derive(1, "x")),
	}
	cases := map[string]Config{
		"trace+stream":      {Problem: prob, Schedule: sched, Horizon: 5, Trace: tr, TraceStream: cur()},
		"sources+trace":     {Problem: prob, Schedule: sched, Horizon: 5, Trace: tr, Sources: srcs},
		"sources+stream":    {Problem: prob, Schedule: sched, Horizon: 5, TraceStream: cur(), Sources: srcs},
		"negative-expected": {Problem: prob, Schedule: sched, Horizon: 5, ExpectedArrivals: -1},
	}
	for name, cfg := range cases {
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
}

// TestExpectedArrivalsHint pins what the hint still does: it sizes the
// up-front LatencySamples reservation. The capacity follows the hint, falls
// back to Σ Rate·(Horizon−Warmup) without one, follows the trace length under
// Trace (which overrides the hint), and stops at the 2 Mi cap.
func TestExpectedArrivalsHint(t *testing.T) {
	prob, sched := singleQueueProblem(50, 150, 1)
	tr := &workload.Trace{Horizon: 5}
	for i := 0; i < 300; i++ {
		tr.Arrivals = append(tr.Arrivals, workload.Arrival{Time: float64(i) / 60, Request: prob.Requests[0].ID})
	}
	base := Config{Problem: prob, Schedule: sched, Horizon: 5, Warmup: 1, Seed: 3}
	cases := []struct {
		name    string
		hint    int
		trace   *workload.Trace
		wantCap int
	}{
		{"hint", 1234, nil, 1234},
		{"rate-fallback", 0, nil, 50 * (5 - 1)},
		{"trace-length", 1234, tr, 300},
		{"capped", 3 << 20, nil, 1 << 21},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			cfg.ExpectedArrivals = tc.hint
			cfg.Trace = tc.trace
			// A fresh simulator per case (a reused one keeps the largest
			// reservation it has made), finalized before any event runs so
			// no delivery can grow the slice past its reservation.
			sim := NewSimulator()
			if err := sim.Reset(cfg); err != nil {
				t.Fatal(err)
			}
			res, err := sim.Finalize()
			if err != nil {
				t.Fatal(err)
			}
			if got := cap(res.LatencySamples); got != tc.wantCap {
				t.Errorf("cap(LatencySamples) = %d, want %d", got, tc.wantCap)
			}
		})
	}
}
