package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"nfvchain/internal/portfolio"
)

// TestRetainEvictsOldestFinished pins the job table's bound: past
// RetainJobs the oldest finished job is forgotten (404), queued and running
// jobs survive any number of completions, the census counts only retained
// jobs, and the result cache outlives the job records.
func TestRetainEvictsOldestFinished(t *testing.T) {
	p := testProblem(t)
	_, c := newTestServer(t, Config{Workers: 1, RetainJobs: 4})
	ctx := context.Background()
	census := func(want map[JobState]int) {
		t.Helper()
		m, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if !maps.Equal(m.JobsByState, want) {
			t.Errorf("JobsByState = %v, want %v", m.JobsByState, want)
		}
	}
	gone := func(id string) {
		t.Helper()
		if _, err := c.Job(ctx, id); err == nil || !strings.Contains(err.Error(), "404") {
			t.Errorf("status of evicted %s: got %v, want 404", id, err)
		}
		if _, err := c.ResultBytes(ctx, id); err == nil || !strings.Contains(err.Error(), "404") {
			t.Errorf("result of evicted %s: got %v, want 404", id, err)
		}
	}
	solve := func(seed uint64) SolveRequest { return SolveRequest{Problem: p, Options: SolveOptions{Seed: seed}} }

	var ids []string
	var first []byte
	for seed := uint64(1); seed <= 5; seed++ {
		st, err := c.Solve(ctx, solve(seed))
		if err != nil {
			t.Fatal(err)
		}
		if st, err = c.Wait(ctx, st.ID); err != nil || st.State != StateDone {
			t.Fatalf("wait: %v, state %s", err, st.State)
		}
		ids = append(ids, st.ID)
		if seed == 1 {
			if first, err = c.ResultBytes(ctx, st.ID); err != nil {
				t.Fatal(err)
			}
		}
		if seed == 4 {
			if _, err := c.Job(ctx, ids[0]); err != nil {
				t.Fatalf("first job gone with only 4 finished: %v", err)
			}
		}
	}
	gone(ids[0])
	for _, id := range ids[1:] {
		if _, err := c.ResultBytes(ctx, id); err != nil {
			t.Errorf("retained %s: %v", id, err)
		}
	}
	census(map[JobState]int{StateDone: 4})

	running, err := c.Simulate(ctx, longSimulate(p, 1))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, c, running.ID, StateRunning)
	queued, err := c.Simulate(ctx, longSimulate(p, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Cache hits finish at submission, so they complete while the only
	// worker is busy. The first resubmits the evicted job's body.
	var hits []string
	for i := 0; i < 10; i++ {
		st, err := c.Solve(ctx, solve(1))
		if err != nil {
			t.Fatal(err)
		}
		if !st.CacheHit || st.State != StateDone {
			t.Fatalf("resubmission %d not served from the cache: %+v", i, st)
		}
		if i == 0 {
			if got, err := c.ResultBytes(ctx, st.ID); err != nil || !bytes.Equal(got, first) {
				t.Errorf("cached result of the evicted job's body: err %v, equal %v", err, bytes.Equal(got, first))
			}
		}
		hits = append(hits, st.ID)
	}
	for _, id := range ids[1:] {
		gone(id)
	}
	gone(hits[0])
	for id, want := range map[string]JobState{running.ID: StateRunning, queued.ID: StateQueued} {
		if st, err := c.Job(ctx, id); err != nil || st.State != want {
			t.Errorf("%s after 10 completions: %v, %+v; want %s", id, err, st, want)
		}
	}
	census(map[JobState]int{StateDone: 4, StateRunning: 1, StateQueued: 1})

	// Canceled jobs are finished too: each evicts one more cache hit.
	for _, id := range []string{queued.ID, running.ID} {
		if _, err := c.Cancel(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	if st, err := c.Wait(ctx, running.ID); err != nil || st.State != StateCanceled {
		t.Fatalf("cancel running job: %v, state %+v", err, st)
	}
	gone(hits[6])
	census(map[JobState]int{StateDone: 2, StateCanceled: 2})
}

// TestRetainSoak runs 10,000 submit/complete cycles of distinct tiny
// problems through the handler and requires the live heap to stay flat:
// a finished job keeps only bytes, and the table holds at most RetainJobs
// of them.
func TestRetainSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const retain, cycles = 64, 10_000
	s := New(Config{Workers: 1, RetainJobs: retain, CacheEntries: -1})
	t.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	h := s.Handler()
	serve := func(method, target, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, target, strings.NewReader(body)))
		return rec
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle frees what sync.Pool victim caches held
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	var base uint64
	for i := 1; i <= cycles; i++ {
		body := fmt.Sprintf(`{"problem": {"nodes": [{"id": "n1", "capacity": 4}],`+
			` "vnfs": [{"id": "fw", "instances": 1, "demand": 1, "serviceRate": 50}],`+
			` "requests": [{"id": "r1", "chain": ["fw"], "rate": %g, "deliveryProb": 0.95}]}}`,
			1+float64(i)/cycles)
		rec := serve(http.MethodPost, "/v1/solve", body)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("cycle %d: submit answered %d: %s", i, rec.Code, rec.Body)
		}
		var st JobStatus
		if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
			t.Fatal(err)
		}
		for {
			rec = serve(http.MethodGet, "/v1/jobs/"+st.ID+"/result", "")
			if rec.Code != http.StatusAccepted {
				break
			}
			runtime.Gosched()
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("cycle %d: result answered %d: %s", i, rec.Code, rec.Body)
		}
		switch i {
		case 1000:
			base = heap()
		case cycles:
			end := heap()
			t.Logf("HeapAlloc after GC: %d B at cycle 1000, %d B at cycle %d", base, end, cycles)
			if d := int64(end) - int64(base); d > 1<<20 || d < -(1<<20) {
				t.Errorf("live heap moved %+d B between cycles 1000 and %d; want within 1 MiB", d, cycles)
			}
		}
	}
	s.mu.Lock()
	retained := len(s.jobs)
	s.mu.Unlock()
	if retained != retain {
		t.Errorf("job table holds %d jobs, want %d", retained, retain)
	}
}

// TestProgressThinning drives the anytime trajectory with a synthetic
// publication stream: it never exceeds maxProgress points, a full
// trajectory halves to every second point plus the newest, the first and
// newest points always survive, and Incumbents counts every publication.
func TestProgressThinning(t *testing.T) {
	var s Server
	j := &job{}
	const n = 10_000
	for i := 0; i < n; i++ {
		s.publish(j, portfolio.Incumbent{Solver: "sa", Objective: float64(n - i), Iteration: i})
		if len(j.progress) > maxProgress {
			t.Fatalf("after %d publications the trajectory holds %d points", i+1, len(j.progress))
		}
		switch i + 1 {
		case maxProgress:
			for k, pt := range j.progress {
				if pt.Iteration != k {
					t.Fatalf("below the cap point %d is iteration %d; nothing may be dropped", k, pt.Iteration)
				}
			}
		case maxProgress + 1:
			if len(j.progress) != maxProgress/2+1 {
				t.Fatalf("first thinning kept %d points, want %d", len(j.progress), maxProgress/2+1)
			}
			for k, pt := range j.progress {
				if pt.Iteration != 2*k {
					t.Fatalf("after the first thinning point %d is iteration %d, want %d", k, pt.Iteration, 2*k)
				}
			}
		}
	}
	if first := j.progress[0].Iteration; first != 0 {
		t.Errorf("first point is iteration %d, want 0", first)
	}
	if last := j.progress[len(j.progress)-1].Iteration; last != n-1 {
		t.Errorf("newest point is iteration %d, want %d", last, n-1)
	}
	for k := 1; k < len(j.progress); k++ {
		if j.progress[k].Iteration <= j.progress[k-1].Iteration {
			t.Fatalf("trajectory out of order at %d", k)
		}
	}
	if s.races.Incumbents != n {
		t.Errorf("Incumbents = %d, want %d", s.races.Incumbents, n)
	}
}
