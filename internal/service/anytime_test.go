package service

import (
	"bytes"
	"context"
	"testing"
	"time"

	"nfvchain/internal/core"
)

func anytimeRequest(t *testing.T, deadlineMS int, specs ...string) SolveRequest {
	t.Helper()
	return SolveRequest{
		Problem:    testProblem(t),
		Options:    SolveOptions{Seed: 42},
		Portfolio:  specs,
		DeadlineMS: deadlineMS,
	}
}

func TestAnytimeSolveRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	st, sol, err := c.SolveAnytime(ctx, anytimeRequest(t, 5000,
		"greedy", "sa:iters=800;polish=200", "lns:iters=60", "pso:iters=20;particles=6"))
	if err != nil {
		t.Fatalf("SolveAnytime: %v", err)
	}
	if len(st.Progress) == 0 {
		t.Fatal("no incumbent trajectory in job progress")
	}
	for i := 1; i < len(st.Progress); i++ {
		if st.Progress[i].Objective >= st.Progress[i-1].Objective {
			t.Errorf("progress %d objective %v not below %v",
				i, st.Progress[i].Objective, st.Progress[i-1].Objective)
		}
	}
	if sol.Placement == nil || sol.Schedule == nil {
		t.Fatal("winner missing placement or schedule")
	}
	if err := sol.Placement.Validate(sol.Problem); err != nil {
		t.Errorf("winning placement invalid: %v", err)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Races.Started != 1 || m.Races.Completed != 1 {
		t.Errorf("race counters = %+v, want started=completed=1", m.Races)
	}
	if m.Races.Incumbents != len(st.Progress) {
		t.Errorf("Incumbents = %d, progress has %d points", m.Races.Incumbents, len(st.Progress))
	}
}

// TestAnytimeBypassesCache: two identical anytime submissions both run —
// deadline-bounded races are wall-clock dependent, so their results must
// never be served from the deterministic result cache.
func TestAnytimeBypassesCache(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	req := anytimeRequest(t, 2000, "greedy", "lns:iters=30")
	for i := 0; i < 2; i++ {
		st, _, err := c.SolveAnytime(ctx, req)
		if err != nil {
			t.Fatalf("SolveAnytime #%d: %v", i, err)
		}
		if st.CacheHit {
			t.Errorf("submission %d answered from cache", i)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Races.Started != 2 {
		t.Errorf("Started = %d, want 2 (no cache hit)", m.Races.Started)
	}
	if m.Cache.Entries != 0 {
		t.Errorf("cache entries = %d, want 0", m.Cache.Entries)
	}
}

func TestAnytimeDeadlineReturnsBestSoFar(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	// Unbounded SA must be cut off by the 300ms deadline with best-so-far.
	st, sol, err := c.SolveAnytime(ctx, anytimeRequest(t, 300, "greedy", "sa:iters=0;cooling=0.99999"))
	if err != nil {
		t.Fatalf("SolveAnytime: %v", err)
	}
	if sol == nil || len(st.Progress) == 0 {
		t.Fatal("no best-so-far incumbent at deadline")
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Races.DeadlineExpired != 1 {
		t.Errorf("DeadlineExpired = %d, want 1", m.Races.DeadlineExpired)
	}
}

// TestRaceDeadline: a race runs under deadline_ms when it is set and
// under MaxDeadlineMS otherwise, so iteration budgets alone cannot hold a
// worker past the cap.
func TestRaceDeadline(t *testing.T) {
	for _, c := range []struct {
		ms   int
		want time.Duration
	}{
		{0, 10 * time.Minute},
		{1, time.Millisecond},
		{300, 300 * time.Millisecond},
		{MaxDeadlineMS, 10 * time.Minute},
	} {
		if got := raceDeadline(c.ms); got != c.want {
			t.Errorf("raceDeadline(%d) = %v, want %v", c.ms, got, c.want)
		}
	}
}

// TestAnytimeNoDeadlineBitIdentical: a race without deadline_ms that
// finishes within MaxDeadlineMS serves the same document as the direct,
// deadline-free core.SolveRace.
func TestAnytimeNoDeadlineBitIdentical(t *testing.T) {
	req := anytimeRequest(t, 0, "greedy", "sa:iters=800;polish=200", "lns:iters=40", "pso:iters=15;particles=6")
	sol, _, err := core.SolveRace(context.Background(), req.Problem, core.RaceOptions{
		Portfolio: req.Portfolio,
		Seed:      req.Options.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sol.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	st, err := c.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID); err != nil || st.State != StateDone {
		t.Fatalf("wait: %v, state %s", err, st.State)
	}
	got, err := c.ResultBytes(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("served race differs from direct core.SolveRace (%d vs %d bytes)", len(got), want.Len())
	}
}

func TestAnytimeValidation(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	cases := []SolveRequest{
		anytimeRequest(t, 0, "warp-drive"),           // unknown solver
		anytimeRequest(t, -5, "greedy"),              // negative deadline
		anytimeRequest(t, MaxDeadlineMS+1, "greedy"), // beyond cap
		anytimeRequest(t, 0, "sa:iters=0"),           // unbounded without deadline
		{Problem: testProblem(t), DeadlineMS: 100},   // deadline without portfolio
		func() SolveRequest { // classic placer conflicts with a race
			r := anytimeRequest(t, 0, "greedy")
			r.Options.Placer = "ffd"
			return r
		}(),
		func() SolveRequest { // classic scheduler conflicts with a race
			r := anytimeRequest(t, 0, "greedy")
			r.Options.Scheduler = "cga"
			return r
		}(),
	}
	for i, req := range cases {
		if _, err := c.Solve(ctx, req); err == nil {
			t.Errorf("case %d accepted: %+v", i, req)
		}
	}
}

// TestAnytimeCancelReturnsBestSoFar: cancelling a running race stops it
// and, when an incumbent already exists, the job completes with the
// best-so-far result (the anytime contract: best-so-far on deadline or
// cancel).
func TestAnytimeCancelReturnsBestSoFar(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	// Unbounded SA keeps the race running until the cancel arrives.
	st, err := c.Solve(ctx, anytimeRequest(t, 60_000, "greedy", "sa:iters=0;cooling=0.99999"))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, StateRunning)
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	switch final.State {
	case StateDone:
		if len(final.Progress) == 0 {
			t.Error("done without any incumbent in progress")
		}
		if _, err := c.SolveResult(ctx, st.ID); err != nil {
			t.Errorf("best-so-far result unavailable: %v", err)
		}
	case StateCanceled:
		// The cancel won the race against the first incumbent — legal, the
		// job reports canceled instead of best-so-far.
	default:
		t.Errorf("canceled anytime job ended %s (error %q)", final.State, final.Error)
	}
}
