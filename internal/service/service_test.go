package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"nfvchain/internal/core"
	"nfvchain/internal/model"
)

// testProblem builds the small fixed instance shared by the e2e tests: two
// nodes, two VNFs, three chained requests.
func testProblem(t *testing.T) *model.Problem {
	t.Helper()
	p := &model.Problem{
		Nodes: []model.Node{
			{ID: "n1", Capacity: 10},
			{ID: "n2", Capacity: 10},
		},
		VNFs: []model.VNF{
			{ID: "fw", Instances: 2, Demand: 1, ServiceRate: 40},
			{ID: "nat", Instances: 1, Demand: 1, ServiceRate: 30},
		},
		Requests: []model.Request{
			{ID: "r1", Chain: []model.VNFID{"fw", "nat"}, Rate: 6, DeliveryProb: 0.95},
			{ID: "r2", Chain: []model.VNFID{"fw"}, Rate: 8, DeliveryProb: 0.98},
			{ID: "r3", Chain: []model.VNFID{"nat", "fw"}, Rate: 4, DeliveryProb: 0.9},
		},
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	return p
}

// newTestServer boots a Server behind httptest and returns it with a client.
// Cleanup shuts the pool down, cancelling any jobs still running.
func newTestServer(t *testing.T, cfg Config) (*Server, *Client) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s, NewClient(ts.URL)
}

// waitState polls until the job reaches want, failing on a terminal detour.
func waitState(t *testing.T, c *Client, id string, want JobState) *JobStatus {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st, err := c.Job(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.terminal() {
			t.Fatalf("job %s reached %s (error %q) while waiting for %s", id, st.State, st.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never reached %s", id, want)
	return nil
}

// TestServedSolveBitIdentical asserts a served solve result is byte-for-byte
// the document the library produces directly under the same seed.
func TestServedSolveBitIdentical(t *testing.T) {
	p := testProblem(t)
	reqOpts := SolveOptions{Seed: 5, LinkDelay: 0.001}

	copts, err := reqOpts.coreOptions()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Optimize(p, copts)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := sol.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}

	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	st, err := c.Solve(ctx, SolveRequest{Problem: p, Options: reqOpts})
	if err != nil {
		t.Fatal(err)
	}
	if st.Kind != "solve" || st.State != StateQueued {
		t.Fatalf("unexpected submit status %+v", st)
	}
	if st, err = c.Wait(ctx, st.ID); err != nil || st.State != StateDone {
		t.Fatalf("wait: %v, state %s", err, st.State)
	}
	got, err := c.ResultBytes(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("served solution differs from direct core.Optimize output (%d vs %d bytes)", len(got), want.Len())
	}
	back, err := c.SolveResult(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	backSched, err := json.Marshal(back.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	solSched, err := json.Marshal(sol.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if back.RejectionRate != sol.RejectionRate || !bytes.Equal(backSched, solSched) {
		t.Error("parsed served solution drifted from the direct one")
	}
}

// TestServedSimulateBitIdentical asserts a served solve+simulate run is
// byte-for-byte identical to the direct library path under the same seeds,
// and that posting the solved document instead reproduces the same results.
func TestServedSimulateBitIdentical(t *testing.T) {
	p := testProblem(t)
	reqOpts := SolveOptions{Seed: 5, LinkDelay: 0.001}
	simOpts := SimOptions{Horizon: 10, Warmup: 1, BufferSize: 1, Seed: 7}

	copts, err := reqOpts.coreOptions()
	if err != nil {
		t.Fatal(err)
	}
	sol, err := core.Optimize(p, copts)
	if err != nil {
		t.Fatal(err)
	}
	simCfg, err := simOpts.simConfig()
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Simulate(sol, simCfg)
	if err != nil {
		t.Fatal(err)
	}
	var want, solDoc bytes.Buffer
	if err := res.WriteJSON(&want); err != nil {
		t.Fatal(err)
	}
	if err := sol.WriteJSON(&solDoc); err != nil {
		t.Fatal(err)
	}

	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()

	st, err := c.Simulate(ctx, SimulateRequest{Problem: p, Options: reqOpts, Sim: simOpts})
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
		t.Errorf("served results differ from direct core.Simulate output (%d vs %d bytes)", len(got), want.Len())
	}

	// Same simulation, but over the posted solved document.
	st2, err := c.Simulate(ctx, SimulateRequest{Solution: json.RawMessage(solDoc.Bytes()), Sim: simOpts})
	if err != nil {
		t.Fatal(err)
	}
	if st2, err = c.Wait(ctx, st2.ID); err != nil || st2.State != StateDone {
		t.Fatalf("wait posted-solution job: %v, state %s", err, st2.State)
	}
	got2, err := c.ResultBytes(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, want.Bytes()) {
		t.Error("simulating the posted solution diverged from the solve+simulate path")
	}
}

// TestSimulateLegacyAgendaIgnored keeps old clients working: the agenda
// spellings nfvd once honoured are still accepted, and each yields the same
// result bytes as a request without the field (the simulator has one event
// queue). An unknown spelling is still a 400 (see TestValidationErrors).
func TestSimulateLegacyAgendaIgnored(t *testing.T) {
	p := testProblem(t)
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	run := func(agenda string) []byte {
		t.Helper()
		st, err := c.Simulate(ctx, SimulateRequest{Problem: p, Options: SolveOptions{Seed: 5},
			Sim: SimOptions{Horizon: 5, Warmup: 1, Seed: 7, Agenda: agenda}})
		if err != nil {
			t.Fatalf("agenda %q: %v", agenda, err)
		}
		if st, err = c.Wait(ctx, st.ID); err != nil || st.State != StateDone {
			t.Fatalf("agenda %q: wait: %v, state %s", agenda, err, st.State)
		}
		got, err := c.ResultBytes(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	want := run("")
	for _, agenda := range []string{"auto", "heap", "ladder"} {
		if got := run(agenda); !bytes.Equal(got, want) {
			t.Errorf("agenda %q: result bytes differ from a request without the field", agenda)
		}
	}
}

// TestCacheHit asserts a duplicate submission — even with different JSON
// formatting — answers instantly from the cache with the hit counter bumped.
func TestCacheHit(t *testing.T) {
	p := testProblem(t)
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	req := SolveRequest{Problem: p, Options: SolveOptions{Seed: 9}}

	st, err := c.Solve(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st.CacheHit {
		t.Fatal("first submission claims a cache hit")
	}
	if st, err = c.Wait(ctx, st.ID); err != nil || st.State != StateDone {
		t.Fatalf("wait: %v, state %s", err, st.State)
	}
	first, err := c.ResultBytes(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}

	// Re-submit the same request with different whitespace: the fingerprint
	// canonicalizes the parsed body, so this must hit.
	compact, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var indented bytes.Buffer
	if err := json.Indent(&indented, compact, "", "    "); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.BaseURL+"/v1/solve", "application/json", &indented)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submission: got %d, want 200", resp.StatusCode)
	}
	var st2 JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st2); err != nil {
		t.Fatal(err)
	}
	if !st2.CacheHit || st2.State != StateDone {
		t.Fatalf("duplicate submission not served from cache: %+v", st2)
	}
	second, err := c.ResultBytes(ctx, st2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("cached result differs from the original")
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cache.Hits != 1 || m.Cache.Misses != 1 || m.Cache.Entries != 1 {
		t.Errorf("cache counters: got hits=%d misses=%d entries=%d, want 1/1/1",
			m.Cache.Hits, m.Cache.Misses, m.Cache.Entries)
	}
	if m.Cache.HitRate != 0.5 {
		t.Errorf("hit rate: got %v, want 0.5", m.Cache.HitRate)
	}
}

// longSimulate is a request whose event loop runs effectively forever, used
// to occupy a worker until cancelled. Seed varies the fingerprint so copies
// never collide in the cache.
func longSimulate(p *model.Problem, seed uint64) SimulateRequest {
	return SimulateRequest{Problem: p, Sim: SimOptions{Horizon: 1e12, Seed: seed}}
}

// TestQueueFullBackpressure fills a Workers:1/QueueDepth:1 server and
// asserts the overflow submission is refused with 429 and a Retry-After
// hint, leaving no orphan job behind.
func TestQueueFullBackpressure(t *testing.T) {
	p := testProblem(t)
	_, c := newTestServer(t, Config{Workers: 1, QueueDepth: 1, RetryAfter: 2 * time.Second})
	ctx := context.Background()

	st1, err := c.Simulate(ctx, longSimulate(p, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st1.ID, StateRunning) // worker occupied
	st2, err := c.Simulate(ctx, longSimulate(p, 2))
	if err != nil {
		t.Fatal(err)
	}
	if st2.State != StateQueued {
		t.Fatalf("second job: got %s, want queued", st2.State)
	}

	body, err := json.Marshal(longSimulate(p, 3))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(c.BaseURL+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission: got %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After: got %q, want \"2\"", got)
	}

	// Unblock the pool so cleanup doesn't burn the drain budget.
	for _, id := range []string{st2.ID, st1.ID} {
		if _, err := c.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := c.Wait(ctx, st1.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("cancel running job: %v, state %s", err, st.State)
	}

	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.QueueCapacity != 1 || m.Workers != 1 {
		t.Errorf("metrics shape: %+v", m)
	}
	if total := m.JobsByState[StateCanceled]; total != 2 {
		t.Errorf("refused job leaked into the registry: canceled=%d, byState=%v", total, m.JobsByState)
	}
}

// TestCancelRunningJob asserts DELETE aborts an effectively-endless
// simulation promptly (within the simulator's ctx-check interval) and the
// result endpoint then answers 410.
func TestCancelRunningJob(t *testing.T) {
	p := testProblem(t)
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()

	st, err := c.Simulate(ctx, longSimulate(p, 42))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, st.ID, StateRunning)
	start := time.Now()
	if _, err := c.Cancel(ctx, st.ID); err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("wait: %v, state %s", err, st.State)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("cancellation took %v; the amortized ctx check should land far sooner", elapsed)
	}

	// Idempotent cancel.
	if st, err = c.Cancel(ctx, st.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("second cancel: %v, state %s", err, st.State)
	}
	// Result is gone.
	if _, err := c.ResultBytes(ctx, st.ID); err == nil || !strings.Contains(err.Error(), "410") {
		t.Errorf("result of canceled job: got %v, want 410", err)
	}
}

// TestCancelDoneConflicts asserts cancelling a completed job answers 409.
func TestCancelDoneConflicts(t *testing.T) {
	p := testProblem(t)
	_, c := newTestServer(t, Config{Workers: 1})
	ctx := context.Background()
	st, err := c.Solve(ctx, SolveRequest{Problem: p})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID); err != nil || st.State != StateDone {
		t.Fatalf("wait: %v, state %s", err, st.State)
	}
	if _, err := c.Cancel(ctx, st.ID); err == nil || !strings.Contains(err.Error(), "409") {
		t.Errorf("cancel done job: got %v, want 409", err)
	}
}

// TestValidationErrors exercises the 4xx paths.
func TestValidationErrors(t *testing.T) {
	p := testProblem(t)
	_, c := newTestServer(t, Config{Workers: 1})
	post := func(path, body string) (int, string) {
		t.Helper()
		resp, err := http.Post(c.BaseURL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var envelope errorBody
		_ = json.NewDecoder(resp.Body).Decode(&envelope)
		return resp.StatusCode, envelope.Error
	}

	if code, _ := post("/v1/solve", `{`); code != http.StatusBadRequest {
		t.Errorf("malformed body: got %d", code)
	}
	if code, _ := post("/v1/solve", `{"bogus": 1}`); code != http.StatusBadRequest {
		t.Errorf("unknown field: got %d", code)
	}
	if code, msg := post("/v1/solve", `{"problem": null}`); code != http.StatusBadRequest || !strings.Contains(msg, "missing problem") {
		t.Errorf("missing problem: got %d %q", code, msg)
	}
	pb, _ := json.Marshal(p)
	if code, msg := post("/v1/solve", fmt.Sprintf(`{"problem": %s, "options": {"placer": "magic"}}`, pb)); code != http.StatusBadRequest || !strings.Contains(msg, "unknown placer") {
		t.Errorf("unknown placer: got %d %q", code, msg)
	}
	if code, msg := post("/v1/simulate", `{"sim": {"horizon": 1}}`); code != http.StatusBadRequest || !strings.Contains(msg, "exactly one") {
		t.Errorf("neither problem nor solution: got %d %q", code, msg)
	}
	if code, _ := post("/v1/simulate", fmt.Sprintf(`{"problem": %s, "solution": {"x":1}, "sim": {"horizon": 1}}`, pb)); code != http.StatusBadRequest {
		t.Errorf("both problem and solution: got %d", code)
	}
	if code, msg := post("/v1/simulate", fmt.Sprintf(`{"problem": %s, "sim": {"horizon": 1, "agenda": "calendar"}}`, pb)); code != http.StatusBadRequest || !strings.Contains(msg, "agenda") {
		t.Errorf("bad agenda: got %d %q", code, msg)
	}
	// Only whitespace may follow the document: a second value is not
	// silently dropped.
	solve := fmt.Sprintf(`{"problem": %s}`, pb)
	if code, msg := post("/v1/solve", solve+solve); code != http.StatusBadRequest || !strings.Contains(msg, "after top-level value") {
		t.Errorf("two solve documents: got %d %q", code, msg)
	}
	if code, msg := post("/v1/solve", solve+" x"); code != http.StatusBadRequest || !strings.Contains(msg, "after top-level value") {
		t.Errorf("trailing garbage: got %d %q", code, msg)
	}
	sim := fmt.Sprintf(`{"problem": %s, "sim": {"horizon": 1}}`, pb)
	if code, msg := post("/v1/simulate", sim+`{"problem": null}`); code != http.StatusBadRequest || !strings.Contains(msg, "after top-level value") {
		t.Errorf("two simulate documents: got %d %q", code, msg)
	}
	if code, msg := post("/v1/solve", solve+" \r\n\t"); code >= 300 {
		t.Errorf("trailing whitespace: got %d %q", code, msg)
	}
	if code, msg := post("/v1/solve", `{"options": {}, "OPTIONS": {}}`); code != http.StatusBadRequest || !strings.Contains(msg, "duplicate key") {
		t.Errorf("repeated field: got %d %q", code, msg)
	}

	if st, err := c.Job(context.Background(), "job-999"); err == nil {
		t.Errorf("unknown job: got %+v, want 404 error", st)
	} else if !strings.Contains(err.Error(), "404") {
		t.Errorf("unknown job error: %v", err)
	}
}

// TestBodyTooLarge asserts oversized bodies answer 413.
func TestBodyTooLarge(t *testing.T) {
	_, c := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 64})
	body := `{"problem": {"nodes": [` + strings.Repeat(`{"id":"n","capacity":1},`, 64) + `]}}`
	resp, err := http.Post(c.BaseURL+"/v1/solve", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: got %d, want 413", resp.StatusCode)
	}
}

// TestShutdownRefusesNewJobs asserts submissions after Shutdown answer 503
// and in-flight jobs drain to completion.
func TestShutdownRefusesNewJobs(t *testing.T) {
	p := testProblem(t)
	s := New(Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	c := NewClient(ts.URL)
	ctx := context.Background()

	st, err := c.Solve(ctx, SolveRequest{Problem: p})
	if err != nil {
		t.Fatal(err)
	}
	shutCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := s.Shutdown(shutCtx); err != nil {
		t.Fatalf("shutdown did not drain: %v", err)
	}
	// The queued job drained to done.
	if got, err := c.Job(ctx, st.ID); err != nil || got.State != StateDone {
		t.Fatalf("drained job: %v, state %+v", err, got)
	}
	if _, err := c.Solve(ctx, SolveRequest{Problem: p}); err == nil || !strings.Contains(err.Error(), "503") {
		t.Errorf("post-shutdown submission: got %v, want 503", err)
	}
	// Shutdown is idempotent.
	if err := s.Shutdown(shutCtx); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestMetricsLatencyWindow asserts completed jobs populate the latency
// summary and the jobs-by-state census stays consistent.
func TestMetricsLatencyWindow(t *testing.T) {
	p := testProblem(t)
	_, c := newTestServer(t, Config{Workers: 2})
	ctx := context.Background()
	const n = 4
	for i := 0; i < n; i++ {
		st, err := c.Solve(ctx, SolveRequest{Problem: p, Options: SolveOptions{Seed: uint64(100 + i)}})
		if err != nil {
			t.Fatal(err)
		}
		if st, err = c.Wait(ctx, st.ID); err != nil || st.State != StateDone {
			t.Fatalf("wait: %v, state %s", err, st.State)
		}
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsByState[StateDone] != n {
		t.Errorf("done census: got %d, want %d (byState %v)", m.JobsByState[StateDone], n, m.JobsByState)
	}
	if m.JobLatency.Count != n {
		t.Fatalf("job latency summary: %+v", m.JobLatency)
	}
	if m.JobLatency.Mean < 0 || m.JobLatency.P50 > m.JobLatency.P99 {
		t.Errorf("latency summary inconsistent: %+v", m.JobLatency)
	}
	if m.BusyWorkers != 0 || m.QueueDepth != 0 {
		t.Errorf("idle server shows busy=%d depth=%d", m.BusyWorkers, m.QueueDepth)
	}
}

// TestMetricsFreshDaemonStableJSON decodes /metrics from a daemon that has
// never run a job: every field must be present with an explicit zero (no
// omitted keys, no NaN — a NaN would abort encoding server-side and fail the
// decode here), so the document shape is identical before and after traffic.
func TestMetricsFreshDaemonStableJSON(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2})
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics: %d %s", rec.Code, rec.Body.String())
	}
	var doc map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("metrics not valid JSON: %v\n%s", err, rec.Body.String())
	}
	for _, key := range []string{
		"queueDepth", "queueCapacity", "workers", "busyWorkers",
		"workerUtilization", "jobsByState", "cache", "jobLatency",
	} {
		if _, ok := doc[key]; !ok {
			t.Errorf("fresh /metrics omits %q: %s", key, rec.Body.String())
		}
	}
	if got, ok := doc["workerUtilization"].(float64); !ok || got != 0 {
		t.Errorf("fresh workerUtilization: got %v, want explicit 0", doc["workerUtilization"])
	}
	lat, ok := doc["jobLatency"].(map[string]any)
	if !ok {
		t.Fatalf("fresh jobLatency: got %v, want a zero-valued object", doc["jobLatency"])
	}
	for _, k := range []string{"count", "mean", "p50", "p95", "p99"} {
		if v, ok := lat[k].(float64); !ok || v != 0 {
			t.Errorf("fresh jobLatency.%s: got %v, want explicit 0", k, lat[k])
		}
	}
	cache, ok := doc["cache"].(map[string]any)
	if !ok {
		t.Fatalf("fresh cache: got %v, want an object", doc["cache"])
	}
	if v, ok := cache["hitRate"].(float64); !ok || v != 0 {
		t.Errorf("fresh cache.hitRate: got %v, want explicit 0", cache["hitRate"])
	}
}

// TestConcurrentSubmitCancel storms the server with interleaved submissions
// and cancellations; run under -race this pins down the locking. Every job
// must land in a terminal state with the census adding up.
func TestConcurrentSubmitCancel(t *testing.T) {
	p := testProblem(t)
	_, c := newTestServer(t, Config{Workers: 4, QueueDepth: 64})
	ctx := context.Background()

	const goroutines = 8
	const perG = 4
	ids := make(chan string, goroutines*perG)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				seed := uint64(g*perG + i)
				var st *JobStatus
				var err error
				if seed%2 == 0 {
					st, err = c.Solve(ctx, SolveRequest{Problem: p, Options: SolveOptions{Seed: seed}})
				} else {
					st, err = c.Simulate(ctx, longSimulate(p, seed))
				}
				if err != nil {
					t.Error(err)
					return
				}
				if seed%2 == 1 || seed%4 == 0 {
					// Cancel every long job and half the solves; racing the
					// worker is the point.
					if _, err := c.Cancel(ctx, st.ID); err != nil && !strings.Contains(err.Error(), "409") {
						t.Error(err)
						return
					}
				}
				ids <- st.ID
			}
		}(g)
	}
	wg.Wait()
	close(ids)

	terminal := 0
	for id := range ids {
		st, err := c.Wait(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if !st.State.terminal() {
			t.Errorf("job %s stuck in %s", id, st.State)
		}
		terminal++
	}
	if terminal != goroutines*perG {
		t.Fatalf("lost jobs: %d of %d terminal", terminal, goroutines*perG)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, n := range m.JobsByState {
		total += n
	}
	if total != goroutines*perG {
		t.Errorf("census total %d != %d submitted (byState %v)", total, goroutines*perG, m.JobsByState)
	}
}
