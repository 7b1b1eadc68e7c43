package simulate

import (
	"math"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/workload"
)

// steppingFixture builds the default-workload problem and RCKK schedule the
// stepping tests run against.
func steppingFixture(t *testing.T) (*model.Problem, *model.Schedule) {
	t.Helper()
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
	return p, sched
}

// TestSteppingDifferential asserts that the manual drive loop
//
//	for sim.HasPendingEvents() { sim.ProcessNextEvent() }
//	sim.Finalize()
//
// is bit-identical to Run — the contract the ClusterSimulator composition
// rests on.
func TestSteppingDifferential(t *testing.T) {
	p, sched := steppingFixture(t)
	// The subtest is named for the agenda it runs on, the heap.
	t.Run("heap", func(t *testing.T) {
		cfg := Config{Problem: p, Schedule: sched, Horizon: 20, Warmup: 2, Seed: 7}
		want, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var sim Simulator
		if err := sim.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		steps := 0
		lastT := 0.0
		for sim.HasPendingEvents() {
			if pt := sim.PeekNextEventTime(); pt < lastT {
				t.Fatalf("step %d: peeked time %v went backwards (last %v)", steps, pt, lastT)
			} else {
				lastT = pt
			}
			if !sim.ProcessNextEvent() {
				t.Fatalf("step %d: HasPendingEvents true but ProcessNextEvent refused", steps)
			}
			steps++
		}
		if sim.ProcessNextEvent() {
			t.Fatal("ProcessNextEvent advanced past a drained agenda")
		}
		if pt := sim.PeekNextEventTime(); !math.IsInf(pt, 1) {
			t.Fatalf("drained PeekNextEventTime = %v, want +Inf", pt)
		}
		got, err := sim.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if steps == 0 {
			t.Fatal("stepped run processed no events")
		}
		if fg, fw := fingerprintResults(got), fingerprintResults(want); fg != fw {
			t.Errorf("stepped run fingerprint %#x != Run fingerprint %#x", fg, fw)
		}
		if _, err := sim.Finalize(); err == nil {
			t.Error("second Finalize without Reset succeeded")
		}
	})
}

// TestDrainUntilDifferential drives a full run as a sequence of DrainUntil
// windows — unbounded and chunked — and asserts bit-identity with Run: the
// batch-step primitive the windowed cluster driver drains datacenters with
// must process exactly the events an event-at-a-time loop would.
func TestDrainUntilDifferential(t *testing.T) {
	p, sched := steppingFixture(t)
	cfg := Config{Problem: p, Schedule: sched, Horizon: 20, Warmup: 2, Seed: 7}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxPerCall := range []int{0, 7} {
		var sim Simulator
		if err := sim.Reset(cfg); err != nil {
			t.Fatal(err)
		}
		total := 0
		for barrier := 0.5; sim.HasPendingEvents(); barrier += 0.5 {
			for {
				n := sim.DrainUntil(barrier, maxPerCall)
				total += n
				if maxPerCall <= 0 || n < maxPerCall {
					break
				}
			}
			// Inclusive barrier: nothing at or before it may remain pending.
			if pt := sim.PeekNextEventTime(); pt <= barrier {
				t.Fatalf("max=%d: event at %v still pending after DrainUntil(%v)", maxPerCall, pt, barrier)
			}
		}
		if total == 0 {
			t.Fatalf("max=%d: drained no events", maxPerCall)
		}
		got, err := sim.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		if fg, fw := fingerprintResults(got), fingerprintResults(want); fg != fw {
			t.Errorf("max=%d: drained run fingerprint %#x != Run fingerprint %#x", maxPerCall, fg, fw)
		}
	}
}

// TestDrainUntilBounds covers DrainUntil's edges: the max cap is honored, a
// barrier before the first event drains nothing, draining past the horizon
// clamps to it, and an unready simulator reports zero.
func TestDrainUntilBounds(t *testing.T) {
	p, sched := steppingFixture(t)
	cfg := Config{Problem: p, Schedule: sched, Horizon: 20, Warmup: 2, Seed: 7}
	var sim Simulator
	if err := sim.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	first := sim.PeekNextEventTime()
	if n := sim.DrainUntil(first/2, 0); n != 0 {
		t.Errorf("DrainUntil before the first event drained %d events", n)
	}
	if n := sim.DrainUntil(20, 3); n != 3 {
		t.Errorf("DrainUntil(max=3) drained %d events, want exactly 3", n)
	}
	if n := sim.DrainUntil(math.Inf(1), 0); n == 0 {
		t.Error("DrainUntil(+Inf) drained nothing on a pending simulator")
	}
	if sim.HasPendingEvents() {
		t.Error("events pending after draining to +Inf (horizon clamp failed)")
	}
	if _, err := sim.Finalize(); err != nil {
		t.Fatal(err)
	}
	var unready Simulator
	if n := unready.DrainUntil(10, 0); n != 0 {
		t.Errorf("unready DrainUntil drained %d events", n)
	}
}

// TestSteppingMixedWithRun steps part of a run manually and finishes it with
// RunContext — both halves must compose into the exact Run result.
func TestSteppingMixedWithRun(t *testing.T) {
	p, sched := steppingFixture(t)
	cfg := Config{Problem: p, Schedule: sched, Horizon: 20, Warmup: 2, Seed: 7}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sim Simulator
	if err := sim.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000 && sim.HasPendingEvents(); i++ {
		sim.ProcessNextEvent()
	}
	got, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fg, fw := fingerprintResults(got), fingerprintResults(want); fg != fw {
		t.Errorf("mixed step+Run fingerprint %#x != Run fingerprint %#x", fg, fw)
	}
}

// TestInjectMatchesTrace replays the same arrival set two ways — as a Trace,
// and via InjectOnly + Inject calls before the run — and asserts bit-
// identical results: injection is just another way of supplying external
// arrivals.
func TestInjectMatchesTrace(t *testing.T) {
	p, sched := steppingFixture(t)
	trace, err := workload.GenerateTrace(p, 20, workload.InterArrivalExponential, 99)
	if err != nil {
		t.Fatal(err)
	}
	target := p.Requests[0].ID
	cfg := Config{Problem: p, Schedule: sched, Horizon: 20, Warmup: 2, Seed: 7, Trace: trace}
	want, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}

	cfg.InjectOnly = []model.RequestID{target}
	var sim Simulator
	if err := sim.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	injected := 0
	for _, a := range trace.Arrivals {
		if a.Request != target {
			continue
		}
		ok, err := sim.Inject(a.Time, a.Time, a.Request)
		if err != nil {
			t.Fatal(err)
		}
		if a.Time < 20 != ok {
			t.Fatalf("Inject at %v admitted=%v, want %v", a.Time, ok, a.Time < 20)
		}
		if ok {
			injected++
		}
	}
	if injected == 0 {
		t.Fatal("trace contains no arrivals for the injected request")
	}
	got, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	if fg, fw := fingerprintResults(got), fingerprintResults(want); fg != fw {
		t.Errorf("injected run fingerprint %#x != trace run fingerprint %#x", fg, fw)
	}
}

// TestInjectValidation covers Inject's error and truncation contract.
func TestInjectValidation(t *testing.T) {
	p, sched := steppingFixture(t)
	cfg := Config{Problem: p, Schedule: sched, Horizon: 10, Warmup: 1, Seed: 7}
	for _, r := range p.Requests {
		cfg.InjectOnly = append(cfg.InjectOnly, r.ID)
	}
	var sim Simulator
	if err := sim.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	id := p.Requests[0].ID
	if _, err := sim.Inject(1, 1, "no-such-request"); err == nil {
		t.Error("Inject of unknown request succeeded")
	}
	if _, err := sim.Inject(1, 2, id); err == nil {
		t.Error("Inject with birth after arrival succeeded")
	}
	if ok, err := sim.Inject(10, 10, id); err != nil || ok {
		t.Errorf("Inject at horizon = (%v, %v), want rejected without error", ok, err)
	}
	if ok, err := sim.Inject(0.5, 0.25, id); err != nil || !ok {
		t.Fatalf("Inject = (%v, %v), want admitted", ok, err)
	}
	if !sim.CanServe(id) {
		t.Error("CanServe(scheduled request) = false")
	}
	if sim.CanServe("no-such-request") {
		t.Error("CanServe(unknown request) = true")
	}
	// Drain; the injected packet's latency is measured from birth 0.25.
	midRunInjected := false
	for sim.HasPendingEvents() {
		// Exercise one mid-run injection at a legal (current-peek) time.
		if !midRunInjected {
			midRunInjected = true
			at := sim.PeekNextEventTime()
			if ok, err := sim.Inject(at, at, id); err != nil || !ok {
				t.Fatalf("mid-run Inject = (%v, %v)", ok, err)
			}
		}
		sim.ProcessNextEvent()
	}
	res, err := sim.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != 2 {
		t.Errorf("Generated = %d, want 2 (the admitted injections)", res.Generated)
	}
	var uninjected Simulator
	if _, err := uninjected.Inject(0, 0, id); err == nil {
		t.Error("Inject without Reset succeeded")
	}
}

// TestInjectUnpopOrdering pins the staged-event reinsertion: peek a far
// event, inject an earlier one, and the earlier one must process first.
func TestInjectUnpopOrdering(t *testing.T) {
	p, sched := steppingFixture(t)
	cfg := Config{Problem: p, Schedule: sched, Horizon: 10, Warmup: 0, Seed: 7,
		InjectOnly: []model.RequestID{p.Requests[0].ID}}
	for _, r := range p.Requests[1:] {
		cfg.InjectOnly = append(cfg.InjectOnly, r.ID)
	}
	var sim Simulator
	if err := sim.Reset(cfg); err != nil {
		t.Fatal(err)
	}
	// With every request InjectOnly the agenda starts empty.
	if sim.HasPendingEvents() {
		t.Fatal("fully inject-only run has seeded events")
	}
	id := p.Requests[0].ID
	if ok, err := sim.Inject(5, 5, id); err != nil || !ok {
		t.Fatalf("Inject = (%v, %v)", ok, err)
	}
	if pt := sim.PeekNextEventTime(); pt != 5 {
		t.Fatalf("peek after first inject = %v, want 5", pt)
	}
	// The peek staged the t=5 event; injecting at t=1 must come back first.
	if ok, err := sim.Inject(1, 1, id); err != nil || !ok {
		t.Fatalf("earlier Inject = (%v, %v)", ok, err)
	}
	if pt := sim.PeekNextEventTime(); pt != 1 {
		t.Fatalf("peek after earlier inject = %v, want 1", pt)
	}
	times := []float64{}
	for sim.HasPendingEvents() {
		times = append(times, sim.PeekNextEventTime())
		sim.ProcessNextEvent()
	}
	for i := 1; i < len(times); i++ {
		if times[i] < times[i-1] {
			t.Fatalf("event times regressed: %v after %v", times[i], times[i-1])
		}
	}
	res, err := sim.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if res.Generated != 2 || res.Delivered+res.InFlight != 2 {
		t.Errorf("Generated=%d Delivered=%d InFlight=%d, want 2 accounted packets",
			res.Generated, res.Delivered, res.InFlight)
	}
}
