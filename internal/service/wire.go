// Package service turns the nfvchain library into a long-running decision
// service: an HTTP JSON API over the joint placement/scheduling optimizer
// (core.Optimize) and the discrete-event simulator (core.Simulate), backed
// by a bounded job queue, a configurable worker pool that reuses
// simulate.Simulators, and a content-addressed result cache.
//
// The API (stdlib net/http only):
//
//	POST   /v1/solve            submit an optimization job; with a
//	                            "portfolio" list (+ optional "deadline_ms")
//	                            it races solvers anytime-style and returns
//	                            best-so-far on deadline or cancel
//	POST   /v1/simulate         submit a solve+simulate (or simulate-only) job
//	GET    /v1/jobs/{id}        job status
//	GET    /v1/jobs/{id}/result job result (the Solution or Results JSON)
//	DELETE /v1/jobs/{id}        cancel a queued or running job
//	GET    /healthz             liveness probe
//	GET    /metrics             queue/worker/cache/latency metrics (JSON)
//
// Jobs are content-addressed: the SHA-256 fingerprint of the canonical
// (endpoint, problem, options, sim-config) JSON keys a result cache, so an
// identical submission returns a completed job instantly. A full queue
// answers 429 with a Retry-After header — backpressure instead of unbounded
// memory growth. Results are deterministic: a served job is bit-identical
// to the corresponding direct library call under the same seed. Anytime
// portfolio jobs are the one exception — a deadline-bounded race is
// wall-clock dependent, so they bypass the result cache.
package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"nfvchain/internal/core"
	"nfvchain/internal/model"
	"nfvchain/internal/placement"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/simulate"
	"nfvchain/internal/wirejson"
)

// The request documents have hand-written codecs over internal/wirejson
// (below each type). They write exactly what encoding/json writes for the
// struct tags, and read strictly: an unknown or repeated field is an error.
// The differential tests keep encoding/json as the oracle.
var (
	solveOptionsFields    = wirejson.NewFields("placer", "scheduler", "linkDelay", "disableAdmissionControl", "seed")
	solveRequestFields    = wirejson.NewFields("problem", "options", "portfolio", "deadline_ms")
	simOptionsFields      = wirejson.NewFields("horizon", "warmup", "bufferSize", "dropPolicy", "retransmitDelay", "serviceDist", "agenda", "seed", "faultPlan", "failurePolicy")
	simulateRequestFields = wirejson.NewFields("problem", "options", "solution", "sim")
)

// SolveOptions is the wire form of core.Options: algorithms by name so the
// request is pure data (and fingerprintable).
type SolveOptions struct {
	// Placer selects the phase-one algorithm: bfdsu|ffd|bfd|wfd|nah|exact
	// ("" = bfdsu, the paper's proposal).
	Placer string `json:"placer,omitempty"`
	// Scheduler selects the phase-two algorithm:
	// rckk|cga|ckk|kkforward|roundrobin|exact ("" = rckk).
	Scheduler string `json:"scheduler,omitempty"`
	// LinkDelay is the per-hop latency L of Eq. 16.
	LinkDelay float64 `json:"linkDelay,omitempty"`
	// DisableAdmissionControl keeps overloaded assignments.
	DisableAdmissionControl bool `json:"disableAdmissionControl,omitempty"`
	// Seed drives the seeded algorithms (BFDSU).
	Seed uint64 `json:"seed,omitempty"`
}

// AppendWire writes the options as a JSON object, zero members omitted.
func (o *SolveOptions) AppendWire(w *wirejson.Writer) {
	w.BeginObject()
	if o.Placer != "" {
		w.Key("placer")
		w.String(o.Placer)
	}
	if o.Scheduler != "" {
		w.Key("scheduler")
		w.String(o.Scheduler)
	}
	if o.LinkDelay != 0 {
		w.Key("linkDelay")
		w.Float(o.LinkDelay)
	}
	if o.DisableAdmissionControl {
		w.Key("disableAdmissionControl")
		w.Bool(true)
	}
	if o.Seed != 0 {
		w.Key("seed")
		w.Uint64(o.Seed)
	}
	w.EndObject()
}

// DecodeWire reads an options object into o; null leaves o unchanged.
func (o *SolveOptions) DecodeWire(r *wirejson.Reader) {
	var seen uint64
	r.Object(func(key []byte) {
		switch r.Field(solveOptionsFields, key, &seen) {
		case 0:
			o.Placer = r.Str()
		case 1:
			o.Scheduler = r.Str()
		case 2:
			o.LinkDelay = r.Float()
		case 3:
			o.DisableAdmissionControl = r.Bool()
		case 4:
			o.Seed = r.Uint64()
		}
	})
}

// coreOptions resolves the named algorithms into core.Options.
func (o SolveOptions) coreOptions() (core.Options, error) {
	opts := core.Options{
		LinkDelay:               o.LinkDelay,
		DisableAdmissionControl: o.DisableAdmissionControl,
		Seed:                    o.Seed,
	}
	switch o.Placer {
	case "", "bfdsu":
		// nil selects BFDSU with Seed inside core.Optimize.
	case "ffd":
		opts.Placer = placement.FFD{}
	case "bfd":
		opts.Placer = placement.BFD{}
	case "wfd":
		opts.Placer = placement.WFD{}
	case "nah":
		opts.Placer = placement.NAH{}
	case "exact":
		opts.Placer = &placement.Exact{}
	default:
		return opts, fmt.Errorf("unknown placer %q (want bfdsu|ffd|bfd|wfd|nah|exact)", o.Placer)
	}
	switch o.Scheduler {
	case "", "rckk":
	case "cga":
		opts.Scheduler = scheduling.CGA{}
	case "ckk":
		opts.Scheduler = scheduling.CKK{}
	case "kkforward":
		opts.Scheduler = scheduling.KKForward{}
	case "roundrobin":
		opts.Scheduler = scheduling.RoundRobin{}
	case "exact":
		opts.Scheduler = &scheduling.Exact{}
	default:
		return opts, fmt.Errorf("unknown scheduler %q (want rckk|cga|ckk|kkforward|roundrobin|exact)", o.Scheduler)
	}
	return opts, nil
}

// SolveRequest is the POST /v1/solve body. Setting Portfolio switches the
// job into anytime mode: the listed solver specs (see portfolio.ParseSpec;
// e.g. "greedy", "sa:iters=5000;seed=7", "lns", "pso") race on parallel
// workers, the incumbent objective trajectory streams through the job's
// Progress, and the best-so-far solution is returned when every solver
// finishes or DeadlineMS expires. Anytime jobs bypass the result cache:
// a deadline-bounded race is wall-clock dependent, and the cache only
// serves deterministic results.
type SolveRequest struct {
	Problem *model.Problem `json:"problem"`
	Options SolveOptions   `json:"options"`
	// Portfolio lists the solver specs to race; empty means the classic
	// single-pipeline solve.
	Portfolio []string `json:"portfolio,omitempty"`
	// DeadlineMS bounds the race's wall-clock budget in milliseconds
	// (max MaxDeadlineMS; 0 = MaxDeadlineMS, allowed only when every spec
	// has an iteration budget). Ignored without Portfolio.
	DeadlineMS int `json:"deadline_ms,omitempty"`
}

// AppendWire writes the request as a JSON object.
func (q *SolveRequest) AppendWire(w *wirejson.Writer) {
	w.BeginObject()
	w.Key("problem")
	appendProblem(w, q.Problem)
	w.Key("options")
	q.Options.AppendWire(w)
	if len(q.Portfolio) > 0 {
		w.Key("portfolio")
		w.BeginArray()
		for _, spec := range q.Portfolio {
			w.String(spec)
		}
		w.EndArray()
	}
	if q.DeadlineMS != 0 {
		w.Key("deadline_ms")
		w.Int(q.DeadlineMS)
	}
	w.EndObject()
}

// DecodeWire reads a request object into q; null leaves q unchanged.
func (q *SolveRequest) DecodeWire(r *wirejson.Reader) {
	var seen uint64
	r.Object(func(key []byte) {
		switch r.Field(solveRequestFields, key, &seen) {
		case 0:
			q.Problem = decodeProblem(r)
		case 1:
			q.Options.DecodeWire(r)
		case 2:
			q.Portfolio = wirejson.Slice(r, func(spec *string) { *spec = r.Str() })
		case 3:
			q.DeadlineMS = r.Int()
		}
	})
}

func appendProblem(w *wirejson.Writer, p *model.Problem) {
	if p == nil {
		w.Null()
		return
	}
	p.AppendWire(w)
}

// decodeProblem reads a problem object, or null as nil.
func decodeProblem(r *wirejson.Reader) *model.Problem {
	if r.Null() {
		return nil
	}
	p := new(model.Problem)
	p.DecodeWire(r)
	return p
}

// MaxDeadlineMS caps an anytime job's deadline (10 minutes).
const MaxDeadlineMS = 600_000

// ProgressPoint is one incumbent of an anytime job's objective trajectory:
// monotone decreasing in Objective, in publication order.
type ProgressPoint struct {
	Solver    string  `json:"solver"`
	Objective float64 `json:"objective"`
	Iteration int     `json:"iteration"`
	ElapsedMS float64 `json:"elapsedMs"`
}

// SimOptions is the wire form of core.SimulationConfig: enums by name so
// the request is pure data. Trace replay and fault hooks are not exposed
// over the wire; FaultPlan (plain data) is.
type SimOptions struct {
	Horizon    float64 `json:"horizon"`
	Warmup     float64 `json:"warmup,omitempty"`
	BufferSize int     `json:"bufferSize,omitempty"`
	// DropPolicy: discard|retransmit ("" = discard).
	DropPolicy      string  `json:"dropPolicy,omitempty"`
	RetransmitDelay float64 `json:"retransmitDelay,omitempty"`
	// ServiceDist: exponential|deterministic|lognormal ("" = exponential).
	ServiceDist string `json:"serviceDist,omitempty"`
	// Agenda is accepted for compatibility and ignored: the simulator has
	// one event queue. Older clients may still send auto|heap|ladder; any
	// other value is rejected.
	Agenda string `json:"agenda,omitempty"`
	Seed   uint64 `json:"seed,omitempty"`
	// FaultPlan optionally injects node failures (requires the solution to
	// carry a placement).
	FaultPlan *simulate.FaultPlan `json:"faultPlan,omitempty"`
	// FailurePolicy: drop|retransmit ("" = drop). Ignored without FaultPlan.
	FailurePolicy string `json:"failurePolicy,omitempty"`
}

// AppendWire writes the options as a JSON object, zero members other than
// horizon omitted.
func (o *SimOptions) AppendWire(w *wirejson.Writer) {
	w.BeginObject()
	w.Key("horizon")
	w.Float(o.Horizon)
	if o.Warmup != 0 {
		w.Key("warmup")
		w.Float(o.Warmup)
	}
	if o.BufferSize != 0 {
		w.Key("bufferSize")
		w.Int(o.BufferSize)
	}
	if o.DropPolicy != "" {
		w.Key("dropPolicy")
		w.String(o.DropPolicy)
	}
	if o.RetransmitDelay != 0 {
		w.Key("retransmitDelay")
		w.Float(o.RetransmitDelay)
	}
	if o.ServiceDist != "" {
		w.Key("serviceDist")
		w.String(o.ServiceDist)
	}
	if o.Agenda != "" {
		w.Key("agenda")
		w.String(o.Agenda)
	}
	if o.Seed != 0 {
		w.Key("seed")
		w.Uint64(o.Seed)
	}
	if o.FaultPlan != nil {
		w.Key("faultPlan")
		o.FaultPlan.AppendWire(w)
	}
	if o.FailurePolicy != "" {
		w.Key("failurePolicy")
		w.String(o.FailurePolicy)
	}
	w.EndObject()
}

// DecodeWire reads an options object into o; null leaves o unchanged.
func (o *SimOptions) DecodeWire(r *wirejson.Reader) {
	var seen uint64
	r.Object(func(key []byte) {
		switch r.Field(simOptionsFields, key, &seen) {
		case 0:
			o.Horizon = r.Float()
		case 1:
			o.Warmup = r.Float()
		case 2:
			o.BufferSize = r.Int()
		case 3:
			o.DropPolicy = r.Str()
		case 4:
			o.RetransmitDelay = r.Float()
		case 5:
			o.ServiceDist = r.Str()
		case 6:
			o.Agenda = r.Str()
		case 7:
			o.Seed = r.Uint64()
		case 8:
			if r.Null() {
				return
			}
			o.FaultPlan = new(simulate.FaultPlan)
			o.FaultPlan.DecodeWire(r)
		case 9:
			o.FailurePolicy = r.Str()
		}
	})
}

// simConfig resolves the named enums into a core.SimulationConfig.
func (o SimOptions) simConfig() (core.SimulationConfig, error) {
	cfg := core.SimulationConfig{
		Horizon:         o.Horizon,
		Warmup:          o.Warmup,
		BufferSize:      o.BufferSize,
		RetransmitDelay: o.RetransmitDelay,
		Seed:            o.Seed,
		FaultPlan:       o.FaultPlan,
	}
	switch o.DropPolicy {
	case "", "discard":
	case "retransmit":
		cfg.DropPolicy = simulate.DropRetransmit
	default:
		return cfg, fmt.Errorf("unknown drop policy %q (want discard|retransmit)", o.DropPolicy)
	}
	switch o.ServiceDist {
	case "", "exponential":
	case "deterministic":
		cfg.ServiceDist = simulate.ServiceDeterministic
	case "lognormal":
		cfg.ServiceDist = simulate.ServiceLogNormal
	default:
		return cfg, fmt.Errorf("unknown service distribution %q (want exponential|deterministic|lognormal)", o.ServiceDist)
	}
	switch o.Agenda {
	case "", "auto", "heap", "ladder":
	default:
		return cfg, fmt.Errorf("unknown agenda %q (want auto|heap|ladder)", o.Agenda)
	}
	switch o.FailurePolicy {
	case "", "drop":
	case "retransmit":
		cfg.FailurePolicy = simulate.FailRetransmit
	default:
		return cfg, fmt.Errorf("unknown failure policy %q (want drop|retransmit)", o.FailurePolicy)
	}
	return cfg, nil
}

// SimulateRequest is the POST /v1/simulate body. Exactly one of Problem
// (solve first, then simulate) or Solution (simulate a previously solved —
// e.g. nfvsim -out — document verbatim) must be set.
type SimulateRequest struct {
	Problem *model.Problem `json:"problem,omitempty"`
	// Options configures the solve phase; ignored with a posted Solution.
	Options SolveOptions `json:"options"`
	// Solution is a core.Solution document (problem+placement+schedule).
	Solution json.RawMessage `json:"solution,omitempty"`
	Sim      SimOptions      `json:"sim"`
}

// AppendWire writes the request as a JSON object. The Solution, which must
// be valid JSON (DecodeWire checks it), is written compacted as
// encoding/json writes a json.RawMessage.
func (q *SimulateRequest) AppendWire(w *wirejson.Writer) {
	w.BeginObject()
	if q.Problem != nil {
		w.Key("problem")
		q.Problem.AppendWire(w)
	}
	w.Key("options")
	q.Options.AppendWire(w)
	if len(q.Solution) > 0 {
		w.Key("solution")
		w.Raw(q.Solution)
	}
	w.Key("sim")
	q.Sim.AppendWire(w)
	w.EndObject()
}

// DecodeWire reads a request object into q; null leaves q unchanged. The
// Solution is kept as its raw bytes (null included), checked only as JSON.
func (q *SimulateRequest) DecodeWire(r *wirejson.Reader) {
	var seen uint64
	r.Object(func(key []byte) {
		switch r.Field(simulateRequestFields, key, &seen) {
		case 0:
			q.Problem = decodeProblem(r)
		case 1:
			q.Options.DecodeWire(r)
		case 2:
			q.Solution = r.Raw()
		case 3:
			q.Sim.DecodeWire(r)
		}
	})
}

// JobState enumerates a job's lifecycle.
type JobState string

// Job lifecycle states.
const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// JobStatus is the wire form of a job's state, returned by the submit,
// status and cancel endpoints.
type JobStatus struct {
	ID    string   `json:"id"`
	Kind  string   `json:"kind"` // "solve" or "simulate"
	State JobState `json:"state"`
	// CacheHit marks a submission answered from the result cache.
	CacheHit bool   `json:"cacheHit,omitempty"`
	Error    string `json:"error,omitempty"`
	// Progress is the anytime-race incumbent trajectory so far; empty for
	// classic jobs.
	Progress []ProgressPoint `json:"progress,omitempty"`
}

// Metrics is the GET /metrics document.
type Metrics struct {
	QueueDepth    int `json:"queueDepth"`
	QueueCapacity int `json:"queueCapacity"`
	Workers       int `json:"workers"`
	BusyWorkers   int `json:"busyWorkers"`
	// WorkerUtilization is BusyWorkers/Workers.
	WorkerUtilization float64 `json:"workerUtilization"`
	// JobsByState counts every job ever submitted by current state.
	JobsByState map[JobState]int `json:"jobsByState"`
	Cache       CacheMetrics     `json:"cache"`
	// JobLatency summarizes enqueue-to-finish latency (seconds) over the
	// most recent completed jobs. Always present so the document shape is
	// stable: all-zero until the first job completes, never NaN.
	JobLatency LatencyMetrics `json:"jobLatency"`
	// Races counts anytime-portfolio activity. Always present.
	Races RaceMetrics `json:"races"`
}

// RaceMetrics counts anytime-race traffic.
type RaceMetrics struct {
	// Started and Completed count races begun/finished by a worker.
	Started   int `json:"started"`
	Completed int `json:"completed"`
	// DeadlineExpired counts races that ended by deadline rather than by
	// exhausting every solver's budget.
	DeadlineExpired int `json:"deadlineExpired"`
	// Incumbents counts first-improvement publications across all races.
	Incumbents int `json:"incumbents"`
}

// CacheMetrics counts result-cache traffic.
type CacheMetrics struct {
	Hits    int `json:"hits"`
	Misses  int `json:"misses"`
	Entries int `json:"entries"`
	// HitRate is Hits/(Hits+Misses), 0 before any lookup.
	HitRate float64 `json:"hitRate"`
}

// LatencyMetrics summarizes job latencies with the repo's stats helpers.
type LatencyMetrics struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P95   float64 `json:"p95"`
	P99   float64 `json:"p99"`
}

// errorBody is the JSON error envelope of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

// fingerprint returns the SHA-256 content address of a request (a
// *SolveRequest or *SimulateRequest): the endpoint kind plus the canonical
// compact re-encoding of the parsed body — the bytes json.Marshal writes —
// so formatting differences (whitespace, field order) between semantically
// identical submissions do not split the cache. The encoding streams into
// the hash in chunks rather than being held whole.
func fingerprint(kind string, req any) (string, error) {
	doc, ok := req.(interface{ AppendWire(*wirejson.Writer) })
	if !ok {
		return "", fmt.Errorf("service: fingerprint: %T has no wire form", req)
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	if err := wirejson.Stream(h, doc.AppendWire); err != nil {
		return "", fmt.Errorf("service: fingerprint: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
