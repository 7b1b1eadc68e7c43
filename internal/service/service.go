package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"nfvchain/internal/core"
	"nfvchain/internal/model"
	"nfvchain/internal/portfolio"
	"nfvchain/internal/simulate"
	"nfvchain/internal/stats"
	"nfvchain/internal/wirejson"
)

// Config parameterizes a Server. The zero value picks sensible defaults.
type Config struct {
	// Workers is the solver/simulator worker-pool size; 0 means
	// GOMAXPROCS.
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker; a full
	// queue answers 429 (backpressure, not OOM). 0 means 64.
	QueueDepth int
	// CacheEntries bounds the result cache (FIFO eviction). 0 means 256;
	// negative disables caching.
	CacheEntries int
	// RetryAfter is the 429 Retry-After hint. 0 means 1s.
	RetryAfter time.Duration
	// LatencyWindow is the number of recent completed jobs feeding the
	// /metrics latency percentiles. 0 means 1024.
	LatencyWindow int
	// MaxBodyBytes bounds request bodies. 0 means 32 MiB.
	MaxBodyBytes int64
	// RetainJobs bounds the finished (done, failed or canceled) jobs kept
	// for status and result queries; past it the oldest finished job is
	// forgotten and answers 404. Queued and running jobs are never
	// evicted. 0 means 4096.
	RetainJobs int
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.LatencyWindow <= 0 {
		c.LatencyWindow = 1024
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.RetainJobs <= 0 {
		c.RetainJobs = 4096
	}
	return c
}

// job is the record of one submission: what status and result queries
// read. It holds no request state: the parsed request lives in the task's
// run closure, which only the queue and the worker running it reach, so a
// finished job keeps its result bytes (shared with the cache) and little
// else.
type job struct {
	id       string
	kind     string
	state    JobState
	cacheHit bool
	canceled bool // cancellation requested
	err      string
	result   []byte
	// progress is the anytime-race incumbent trajectory, appended under
	// the server's mutex by the race's publication callback and thinned
	// to at most maxProgress points.
	progress []ProgressPoint
	enqueued time.Time
}

// runFunc computes a job's result document on a worker goroutine; it
// carries the parsed, validated request.
type runFunc func(ctx context.Context, j *job) ([]byte, error)

// task is one queue entry: the job's record and the work that fills it.
// fp is the result-cache key; "" keeps the result out of the cache
// (anytime races are wall-clock dependent).
type task struct {
	j   *job
	fp  string
	run runFunc
}

// maxProgress bounds an anytime job's trajectory.
const maxProgress = 1024

// status snapshots the job's wire form; the server's mutex must be held.
func (j *job) status() JobStatus {
	st := JobStatus{ID: j.id, Kind: j.kind, State: j.state, CacheHit: j.cacheHit, Error: j.err}
	if len(j.progress) > 0 {
		st.Progress = append([]ProgressPoint(nil), j.progress...)
	}
	return st
}

// Server is the solver/simulator serving daemon: an http.Handler backed by
// a bounded job queue and a worker pool. Create with New, expose via
// Handler, stop with Shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux

	mu      sync.Mutex
	jobs    map[string]*job
	nextID  uint64
	queue   chan task
	closed  bool // intake stopped (shutdown begun)
	byState map[JobState]int
	// finished lists the retained finished jobs, oldest first; past
	// RetainJobs the oldest leaves jobs and byState.
	finished []*job
	// running maps each running job to its context's cancel.
	running  map[*job]context.CancelFunc
	latRing  []float64 // enqueue-to-finish seconds, ring buffer
	latNext  int
	latCount int

	cacheHits    int
	cacheMisses  int
	cacheOrder   []string
	cacheEntries map[string][]byte

	races RaceMetrics

	wg      sync.WaitGroup
	simPool sync.Pool // *simulate.Simulator, reused across simulate jobs

	// clock is stubbed in tests; wall time never influences job results.
	clock func() time.Time
}

// New starts a server's worker pool and returns it.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:          cfg,
		jobs:         make(map[string]*job),
		queue:        make(chan task, cfg.QueueDepth),
		byState:      make(map[JobState]int),
		running:      make(map[*job]context.CancelFunc),
		latRing:      make([]float64, cfg.LatencyWindow),
		cacheEntries: make(map[string][]byte),
		clock:        time.Now,
	}
	s.simPool.New = func() any { return simulate.NewSimulator() }
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/simulate", s.handleSimulate)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Shutdown stops intake (new submissions answer 503) and drains: workers
// finish the queued and in-flight jobs. If ctx expires first, running jobs
// are cancelled — they abort within one simulator ctx-check interval — and
// Shutdown returns ctx.Err() once the pool exits.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for _, j := range s.jobs {
			j.canceled = true
		}
		for _, cancel := range s.running {
			cancel()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// worker drains the job queue until Shutdown closes it.
func (s *Server) worker() {
	defer s.wg.Done()
	for t := range s.queue {
		s.runTask(t)
	}
}

// runTask executes one dequeued task. Only the queue and this call hold
// the task, so the request its run closure carries is not kept past the
// run: the job records just the outcome.
func (s *Server) runTask(t task) {
	j := t.j
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	s.mu.Lock()
	if j.canceled {
		if !j.state.terminal() { // canceled by Shutdown, not by DELETE
			s.finishLocked(j, StateCanceled)
		}
		s.mu.Unlock()
		return
	}
	s.setStateLocked(j, StateRunning)
	s.running[j] = cancel
	s.mu.Unlock()

	result, err := t.run(ctx, j)

	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.running, j)
	switch {
	case err == nil:
		j.result = result
		if t.fp != "" {
			s.cachePutLocked(t.fp, result)
		}
		s.noteLatencyLocked(j)
		s.finishLocked(j, StateDone)
	case j.canceled && errors.Is(err, context.Canceled):
		s.finishLocked(j, StateCanceled)
	default:
		j.err = err.Error()
		s.noteLatencyLocked(j)
		s.finishLocked(j, StateFailed)
	}
}

// setStateLocked transitions a job's state, keeping the by-state counters
// consistent. The server's mutex must be held.
func (s *Server) setStateLocked(j *job, to JobState) {
	if j.state != "" {
		s.byState[j.state]--
	}
	j.state = to
	s.byState[to]++
}

// finishLocked moves a job to a terminal state and appends it to the
// finished list, forgetting the oldest finished jobs past RetainJobs. The
// server's mutex must be held.
func (s *Server) finishLocked(j *job, to JobState) {
	s.setStateLocked(j, to)
	s.finished = append(s.finished, j)
	for len(s.finished) > s.cfg.RetainJobs {
		old := s.finished[0]
		s.finished[0] = nil
		s.finished = s.finished[1:]
		delete(s.jobs, old.id)
		s.byState[old.state]--
	}
}

// noteLatencyLocked folds a finished job's enqueue-to-finish latency into
// the metrics ring.
func (s *Server) noteLatencyLocked(j *job) {
	s.latRing[s.latNext] = s.clock().Sub(j.enqueued).Seconds()
	s.latNext = (s.latNext + 1) % len(s.latRing)
	if s.latCount < len(s.latRing) {
		s.latCount++
	}
}

// cacheGetLocked looks up a cached result, bumping the hit/miss counters.
func (s *Server) cacheGetLocked(fp string) ([]byte, bool) {
	if s.cfg.CacheEntries < 0 {
		s.cacheMisses++
		return nil, false
	}
	res, ok := s.cacheEntries[fp]
	if ok {
		s.cacheHits++
	} else {
		s.cacheMisses++
	}
	return res, ok
}

// cachePutLocked stores a result under its fingerprint, evicting the
// oldest entry past the cap (FIFO: the cache serves dedupe, not working-set
// tuning).
func (s *Server) cachePutLocked(fp string, result []byte) {
	if s.cfg.CacheEntries < 0 {
		return
	}
	if _, ok := s.cacheEntries[fp]; ok {
		return
	}
	for len(s.cacheOrder) >= s.cfg.CacheEntries {
		oldest := s.cacheOrder[0]
		s.cacheOrder = s.cacheOrder[1:]
		delete(s.cacheEntries, oldest)
	}
	s.cacheEntries[fp] = result
	s.cacheOrder = append(s.cacheOrder, fp)
}

// submit registers a job for the fingerprint and either answers it from the
// cache (a completed job, instantly) or enqueues it with run. It writes
// the HTTP response in every case. An empty fp (anytime races) skips both
// cache lookup and insertion.
func (s *Server) submit(w http.ResponseWriter, kind, fp string, run runFunc) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	s.nextID++
	j := &job{
		id:       "job-" + strconv.FormatUint(s.nextID, 10),
		kind:     kind,
		enqueued: s.clock(),
	}
	s.jobs[j.id] = j
	if fp != "" {
		if cached, ok := s.cacheGetLocked(fp); ok {
			j.result = cached
			j.cacheHit = true
			s.finishLocked(j, StateDone)
			status := j.status()
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, status)
			return
		}
	}
	select {
	case s.queue <- task{j: j, fp: fp, run: run}:
		s.setStateLocked(j, StateQueued)
		status := j.status()
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, status)
	default:
		// Queue full: refuse the job entirely (it never existed) and tell
		// the client when to retry.
		delete(s.jobs, j.id)
		s.mu.Unlock()
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		writeError(w, http.StatusTooManyRequests, "job queue is full")
	}
}

// handleSolve parses, validates and enqueues an optimization job.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	var req SolveRequest
	if !s.decodeBody(w, r, req.DecodeWire) {
		return
	}
	if req.Problem == nil {
		writeError(w, http.StatusBadRequest, "missing problem")
		return
	}
	ix, err := model.CompileValid(req.Problem)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	opts, err := req.Options.coreOptions()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(req.Portfolio) > 0 {
		s.submitAnytime(w, &req)
		return
	}
	if req.DeadlineMS != 0 {
		writeError(w, http.StatusBadRequest, "deadline_ms requires a portfolio")
		return
	}
	fp, err := fingerprint("solve", &req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.submit(w, "solve", fp, func(ctx context.Context, _ *job) ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sol, err := core.OptimizeValid(ix, opts)
		if err != nil {
			return nil, err
		}
		// Optimize is not interruptible mid-run; honor a cancellation that
		// arrived while it computed rather than publishing the result.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := sol.WriteJSON(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// raceDeadline is the wall-clock budget of an anytime race: deadline_ms
// when set, MaxDeadlineMS otherwise. Every race runs under a deadline
// because iteration budgets are uncapped: "sa:iters=2000000000" alone
// would hold a worker for most of an hour.
func raceDeadline(deadlineMS int) time.Duration {
	if deadlineMS == 0 {
		deadlineMS = MaxDeadlineMS
	}
	return time.Duration(deadlineMS) * time.Millisecond
}

// submitAnytime validates and enqueues an anytime-portfolio solve: a race
// of the requested solver specs, bounded by deadline_ms, streaming the
// incumbent trajectory into the job's progress; without deadline_ms, the
// race is bounded by MaxDeadlineMS. The result document is a
// regular core.Solution JSON — the winner after admission control — so
// downstream consumers (e.g. /v1/simulate with a posted solution) work
// unchanged.
func (s *Server) submitAnytime(w http.ResponseWriter, req *SolveRequest) {
	// The classic placer/scheduler selection does not apply to a race —
	// the portfolio specs pick the algorithms. Reject rather than silently
	// ignore, mirroring nfvsim's -improve/-solver portfolio conflict.
	if req.Options.Placer != "" || req.Options.Scheduler != "" {
		writeError(w, http.StatusBadRequest,
			"placer/scheduler options conflict with a portfolio solve; select algorithms via the portfolio specs instead")
		return
	}
	specs, err := portfolio.ParseSpecs(req.Portfolio)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if req.DeadlineMS < 0 || req.DeadlineMS > MaxDeadlineMS {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("deadline_ms %d outside [0,%d]", req.DeadlineMS, MaxDeadlineMS))
		return
	}
	if req.DeadlineMS == 0 {
		for _, sp := range specs {
			if sp.Iters == 0 {
				writeError(w, http.StatusBadRequest,
					fmt.Sprintf("spec %q has no iteration budget; set deadline_ms", sp.String()))
				return
			}
		}
	}
	problem := req.Problem
	options := req.Options
	deadline := raceDeadline(req.DeadlineMS)
	s.submit(w, "solve", "", func(ctx context.Context, j *job) ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(ctx, deadline)
		defer cancel()
		s.mu.Lock()
		s.races.Started++
		s.mu.Unlock()
		sol, res, err := core.SolveRace(ctx, problem, core.RaceOptions{
			Portfolio:               req.Portfolio,
			Seed:                    options.Seed,
			LinkDelay:               options.LinkDelay,
			DisableAdmissionControl: options.DisableAdmissionControl,
			OnIncumbent:             func(inc portfolio.Incumbent) { s.publish(j, inc) },
		})
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.races.Completed++
		if res.DeadlineExpired {
			s.races.DeadlineExpired++
		}
		s.mu.Unlock()
		var buf bytes.Buffer
		if err := sol.WriteJSON(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// publish appends a race incumbent to its job's trajectory. A full
// trajectory is first halved, keeping every second point from the first
// on, so it stays within maxProgress points and always holds the first
// and the newest. Incumbents counts every publication, also those the
// thinning later drops.
func (s *Server) publish(j *job, inc portfolio.Incumbent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(j.progress) == maxProgress {
		n := 0
		for i := 0; i < len(j.progress); i += 2 {
			j.progress[n] = j.progress[i]
			n++
		}
		j.progress = j.progress[:n]
	}
	j.progress = append(j.progress, ProgressPoint{
		Solver:    inc.Solver,
		Objective: inc.Objective,
		Iteration: inc.Iteration,
		ElapsedMS: float64(inc.Elapsed) / float64(time.Millisecond),
	})
	s.races.Incumbents++
}

// handleSimulate parses, validates and enqueues a solve+simulate (or
// simulate-a-posted-solution) job.
func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if !s.decodeBody(w, r, req.DecodeWire) {
		return
	}
	if (req.Problem == nil) == (len(req.Solution) == 0) {
		writeError(w, http.StatusBadRequest, "exactly one of problem or solution must be set")
		return
	}
	simCfg, err := req.Sim.simConfig()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	var (
		opts     core.Options
		ix       *model.Index
		solution *core.Solution
	)
	if req.Problem != nil {
		if ix, err = model.CompileValid(req.Problem); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		if opts, err = req.Options.coreOptions(); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	} else {
		if solution, err = core.ReadSolutionJSON(bytes.NewReader(req.Solution)); err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
	}
	fp, err := fingerprint("simulate", &req)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.submit(w, "simulate", fp, func(ctx context.Context, _ *job) ([]byte, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sol := solution
		if sol == nil {
			var err error
			if sol, err = core.OptimizeValid(ix, opts); err != nil {
				return nil, err
			}
		}
		sim := s.simPool.Get().(*simulate.Simulator)
		defer s.simPool.Put(sim)
		res, err := core.SimulateWith(ctx, sim, sol, simCfg)
		if err != nil {
			return nil, err
		}
		// Encode before the deferred Put: the Results aliases the pooled
		// simulator's buffers and dies with its next Reset.
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			return nil, err
		}
		return buf.Bytes(), nil
	})
}

// handleJob reports a job's status.
func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	status := j.status()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, status)
}

// handleResult serves a completed job's result document: 200 with the
// Solution/Results JSON when done, 202 with the status while pending, 410
// after a cancellation, 500 with the error after a failure.
func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	status := j.status()
	result := j.result
	s.mu.Unlock()
	switch status.State {
	case StateDone:
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(result)
	case StateCanceled:
		writeError(w, http.StatusGone, "job "+status.ID+" was canceled")
	case StateFailed:
		writeError(w, http.StatusInternalServerError, status.Error)
	default:
		writeJSON(w, http.StatusAccepted, status)
	}
}

// handleCancel cancels a queued or running job. Cancelling a queued job
// unqueues it logically (the worker skips it); cancelling a running job
// fires its context, aborting the simulator within one ctx-check interval.
// Terminal jobs answer 409 (done/failed) or 200 (already canceled,
// idempotent).
func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(w, r)
	if !ok {
		return
	}
	s.mu.Lock()
	switch {
	case j.state == StateCanceled:
		// Idempotent.
	case j.state.terminal():
		status := j.status()
		s.mu.Unlock()
		writeJSON(w, http.StatusConflict, status)
		return
	default:
		j.canceled = true
		if cancel, ok := s.running[j]; ok {
			cancel()
		} else {
			// Queued: the worker will observe canceled and skip; reflect
			// the final state immediately so polling clients see it
			// without racing.
			s.finishLocked(j, StateCanceled)
		}
	}
	status := j.status()
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, status)
}

// handleHealthz answers liveness probes.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

// handleMetrics reports queue, worker, cache and latency metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	m := Metrics{
		QueueDepth:    len(s.queue),
		QueueCapacity: s.cfg.QueueDepth,
		Workers:       s.cfg.Workers,
		BusyWorkers:   len(s.running),
		JobsByState:   make(map[JobState]int, len(s.byState)),
		Cache: CacheMetrics{
			Hits:    s.cacheHits,
			Misses:  s.cacheMisses,
			Entries: len(s.cacheEntries),
		},
		Races: s.races,
	}
	for st, n := range s.byState {
		if n > 0 {
			m.JobsByState[st] = n
		}
	}
	if lookups := s.cacheHits + s.cacheMisses; lookups > 0 {
		m.Cache.HitRate = float64(s.cacheHits) / float64(lookups)
	}
	// Config.withDefaults guarantees Workers >= 1, but guard anyway: a zero
	// divisor would put NaN in the document and break strict JSON decoders.
	if s.cfg.Workers > 0 {
		m.WorkerUtilization = float64(len(s.running)) / float64(s.cfg.Workers)
	}
	lat := make([]float64, s.latCount)
	copy(lat, s.latRing[:s.latCount])
	s.mu.Unlock()

	// JobLatency stays all-zero (not omitted) until the first job completes,
	// so the document shape is identical on a fresh daemon.
	if qs, ok := stats.PercentilesOK(lat, 50, 95, 99); ok {
		m.JobLatency = LatencyMetrics{
			Count: len(lat),
			Mean:  stats.Mean(lat),
			P50:   qs[0],
			P95:   qs[1],
			P99:   qs[2],
		}
	}
	writeJSON(w, http.StatusOK, m)
}

// lookup resolves the {id} path value, answering 404 itself on a miss.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return nil, false
	}
	return j, true
}

// decodeBody reads the whole request body and strictly decodes it with
// doc, answering 4xx itself on failure: 413 past MaxBodyBytes, 400 for
// malformed JSON, an unknown or repeated field, or anything but whitespace
// after the document.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, doc func(*wirejson.Reader)) bool {
	var body bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= s.cfg.MaxBodyBytes {
		body.Grow(int(n) + bytes.MinRead)
	}
	if _, err := body.ReadFrom(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeError(w, http.StatusRequestEntityTooLarge, err.Error())
			return false
		}
		writeError(w, http.StatusBadRequest, fmt.Sprintf("read request: %v", err))
		return false
	}
	if err := wirejson.Unmarshal(body.Bytes(), doc); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
		return false
	}
	return true
}

// writeJSON writes an indented JSON response.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError writes the JSON error envelope.
func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, errorBody{Error: msg})
}
