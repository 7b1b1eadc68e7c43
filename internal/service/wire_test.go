package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"nfvchain/internal/core"
	"nfvchain/internal/model"
	"nfvchain/internal/portfolio"
	"nfvchain/internal/simulate"
	"nfvchain/internal/wirejson"
	"nfvchain/internal/wirejson/wirejsontest"
)

// The oracle types have the request envelopes' fields and tags but none of
// their methods, so encoding/json encodes and decodes them by reflection:
// the oracle the hand-written codecs must match. SolveOptions, SimOptions
// and simulate.FaultPlan have no JSON methods and appear as they are.
type (
	problemOracle      model.Problem
	solveRequestOracle struct {
		Problem    *problemOracle `json:"problem"`
		Options    SolveOptions   `json:"options"`
		Portfolio  []string       `json:"portfolio,omitempty"`
		DeadlineMS int            `json:"deadline_ms,omitempty"`
	}
	simulateRequestOracle struct {
		Problem  *problemOracle  `json:"problem,omitempty"`
		Options  SolveOptions    `json:"options"`
		Solution json.RawMessage `json:"solution,omitempty"`
		Sim      SimOptions      `json:"sim"`
	}
)

func (o *solveRequestOracle) request() SolveRequest {
	return SolveRequest{Problem: (*model.Problem)(o.Problem), Options: o.Options, Portfolio: o.Portfolio, DeadlineMS: o.DeadlineMS}
}

func (o *simulateRequestOracle) request() SimulateRequest {
	return SimulateRequest{Problem: (*model.Problem)(o.Problem), Options: o.Options, Solution: o.Solution, Sim: o.Sim}
}

// oracleDecodeBody is decodeBody as encoding/json would do it: a strict
// json.Decoder, then nothing but whitespace after the document.
func oracleDecodeBody(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data")
	}
	return nil
}

// oracleFingerprint is fingerprint over encoding/json's re-encoding.
func oracleFingerprint(t *testing.T, kind string, v any) string {
	t.Helper()
	canon, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write(canon)
	return hex.EncodeToString(h.Sum(nil))
}

// requestsHaveNoMaps: every object an envelope decodes is a struct (the
// posted solution is kept raw).
func requestsHaveNoMaps([]string) bool { return false }

// rejectOverHTTP posts a body the decoder rejected and requires a 4xx.
func rejectOverHTTP(t *testing.T, h http.Handler, path string, data []byte) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
	if rec.Code < 400 || rec.Code >= 500 {
		t.Fatalf("POST %s %q: status %d, want 4xx", path, data, rec.Code)
	}
}

// fuzzServer boots a Server whose handler receives the rejected bodies.
func fuzzServer(f *testing.F) http.Handler {
	s := New(Config{Workers: 1})
	f.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s.Handler()
}

// addSeeds adds doc, its null variants and the edits to the corpus.
func addSeeds(f *testing.F, doc []byte, edits ...string) {
	f.Add(doc)
	variants, err := wirejsontest.NullVariants(doc)
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range variants {
		f.Add(v)
	}
	for _, e := range edits {
		f.Add([]byte(e))
	}
}

func FuzzSolveRequest(f *testing.F) {
	h := fuzzServer(f)
	doc, err := json.Marshal(&solveRequestOracle{
		Problem:    (*problemOracle)(fingerprintProblem()),
		Options:    SolveOptions{Placer: "ffd", Scheduler: "ckk", LinkDelay: 0.25, DisableAdmissionControl: true, Seed: 3},
		Portfolio:  []string{"greedy", "sa:iters=10"},
		DeadlineMS: 50,
	})
	if err != nil {
		f.Fatal(err)
	}
	s := string(doc)
	addSeeds(f, doc,
		strings.Replace(s, `"options"`, `"OPTIONS"`, 1),
		strings.Replace(s, `"deadline_ms"`, `"DEADLINE_MS"`, 1),
		strings.Replace(s, `"disableAdmissionControl":true`, `"disableAdmissionControl":1`, 1),
		strings.Replace(s, `"disableAdmissionControl":true`, `"disableAdmissionControl":"true"`, 1),
		strings.Replace(s, `"disableAdmissionControl":true`, `"disableAdmissionControl":false`, 1),
		strings.Replace(s, `"seed":3`, `"seed":-1`, 1),
		strings.Replace(s, `"seed":3`, `"seed":3.0`, 1),
		strings.Replace(s, `"seed":3`, `"seed":18446744073709551615`, 1),
		strings.Replace(s, `"seed":3`, `"seed":18446744073709551616`, 1),
		strings.Replace(s, `"seed":3`, `"seed":3,"Seed":4`, 1),
		strings.Replace(s, `"portfolio":[`, `"portfolio":[null,`, 1),
		strings.Replace(s, `"portfolio":[`, `"portfolio":[1,`, 1),
		strings.Replace(s, `"deadline_ms":50`, `"deadline_ms":5e1`, 1),
		strings.Replace(s, `"options":{`, `"options":{"bogus":1,`, 1),
		s+" \n\t", s+s, s+"x", s+"]", s[:len(s)/2],
		`{}`, `{"problem":null}`, `{"problem":{}}`, `null`, ``, `[]`, `{"options":{}}`,
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		var got SolveRequest
		gotErr := wirejson.Unmarshal(data, got.DecodeWire)
		var want solveRequestOracle
		wantErr := oracleDecodeBody(data, &want)
		if !wirejsontest.CompareDecode(t, data, got, gotErr, want.request(), wantErr, requestsHaveNoMaps) {
			if gotErr != nil {
				rejectOverHTTP(t, h, "/v1/solve", data)
			}
			return
		}
		canon, err := wirejson.Marshal(got.AppendWire)
		if err != nil {
			t.Fatal(err)
		}
		if wantCanon, _ := json.Marshal(&want); !bytes.Equal(canon, wantCanon) {
			t.Fatalf("re-encoding %q:\n got %s\nwant %s", data, canon, wantCanon)
		}
		fp, err := fingerprint("solve", &got)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleFingerprint(t, "solve", &want); fp != want {
			t.Fatalf("fingerprint of %q: %s, want %s", data, fp, want)
		}
		checkSolveAfterDecode(&got)
	})
}

// checkSolveAfterDecode runs handleSolve's checks on a decoded body: the
// problem's validation, the algorithm names, and the portfolio specs. Their
// verdicts do not matter here, only that none of them panics on any body
// the decoder accepts.
func checkSolveAfterDecode(req *SolveRequest) {
	if req.Problem != nil {
		_ = req.Problem.Validate()
	}
	_, _ = req.Options.coreOptions()
	if len(req.Portfolio) > 0 {
		_, _ = portfolio.ParseSpecs(req.Portfolio)
	}
}

func FuzzSimulateRequest(f *testing.F) {
	h := fuzzServer(f)
	solution := "{\"problem\": {\"nodes\": [{\"id\": \"n<1>\", \"capacity\": 1e21}]},\n\t\"placement\": null, " +
		"\"schedule\": {\"instanceOf\": {\"r\u2028&\": {\"fw\\\\1\": 1}}}, \"rejected\": [\"\\u003c\", \"bad \xff\"], \"x\": [true, false, -0.5e-7, [], {}]}"
	withSolution, err := json.Marshal(&simulateRequestOracle{
		Solution: json.RawMessage(solution),
		Sim: SimOptions{Horizon: 1, Warmup: 0.1, BufferSize: 4, DropPolicy: "retransmit", RetransmitDelay: 0.01,
			ServiceDist: "lognormal", Agenda: "ladder", Seed: 9, FailurePolicy: "retransmit",
			FaultPlan: &simulate.FaultPlan{MTBF: 3, MTTR: 0.03,
				Outages:    []simulate.Outage{{Node: "n<1>", DownAt: 0.5, UpAt: 1}},
				Preemption: &simulate.PreemptionPlan{MeanInterval: 2, GroupSize: 1, Recovery: 0.5, LeadTime: 1e-7}}},
	})
	if err != nil {
		f.Fatal(err)
	}
	withProblem, err := json.Marshal(&simulateRequestOracle{
		Problem: (*problemOracle)(fingerprintProblem()),
		Options: SolveOptions{Seed: 11},
		Sim:     SimOptions{Horizon: 2.5, FaultPlan: &simulate.FaultPlan{}},
	})
	if err != nil {
		f.Fatal(err)
	}
	s := string(withSolution)
	// The posted solution as a client sends it: indented, with the
	// characters compaction escapes left raw.
	raw := `{"solution": ` + solution + `, "sim": {"horizon": 1}}`
	addSeeds(f, withSolution,
		raw, raw+"\n", raw+raw, raw+" {",
		strings.Replace(raw, `"x": [`, `"x": [1,]`, 1),
		strings.Replace(raw, `"x": [`, `"x": [01,`, 1),
		strings.Replace(raw, `"x": [`, "\"x\": [\"\x01\",", 1),
		strings.Replace(raw, `"x": [`, `"x": ["\q",`, 1),
		`{"solution": null, "sim": {"horizon": 1}}`,
		`{"solution": "text"}`, `{"solution": [[[[]]]]}`, `{"solution": }`, `{"solution": nul}`,
		strings.Replace(s, `"MTBF"`, `"mtbf"`, 1),
		strings.Replace(s, `"Outages":[`, `"outages":[null,`, 1),
		strings.Replace(s, `"Outages":[`, `"Outages":[],"bogus":[`, 1),
		strings.Replace(s, `"GroupSize":1`, `"GroupSize":1.5`, 1),
		strings.Replace(s, `"Preemption":{`, `"PREEMPTION":{"LeadTime":0,`, 1),
		strings.Replace(s, `"bufferSize":4`, `"bufferSize":4,"BufferSize":5`, 1),
		strings.Replace(s, `"seed":9`, `"seed":-9`, 1),
		`{"sim":{"horizon":1,"faultPlan":{}}}`, `{"sim":{"faultPlan":{"Outages":[],"Preemption":null}}}`,
		`{}`, `null`, ``,
	)
	addSeeds(f, withProblem, string(withProblem)+string(withProblem))
	// A valid posted solution, so that the schedule check below runs.
	sol, err := core.Optimize(fingerprintProblem(), core.Options{Seed: 11})
	if err != nil {
		f.Fatal(err)
	}
	var doc bytes.Buffer
	if err := sol.WriteJSON(&doc); err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"solution": ` + doc.String() + `, "sim": {"horizon": 1}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var got SimulateRequest
		gotErr := wirejson.Unmarshal(data, got.DecodeWire)
		var want simulateRequestOracle
		wantErr := oracleDecodeBody(data, &want)
		if !wirejsontest.CompareDecode(t, data, got, gotErr, want.request(), wantErr, requestsHaveNoMaps) {
			if gotErr != nil {
				rejectOverHTTP(t, h, "/v1/simulate", data)
			}
			return
		}
		canon, err := wirejson.Marshal(got.AppendWire)
		if err != nil {
			t.Fatal(err)
		}
		if wantCanon, _ := json.Marshal(&want); !bytes.Equal(canon, wantCanon) {
			t.Fatalf("re-encoding %q:\n got %s\nwant %s", data, canon, wantCanon)
		}
		fp, err := fingerprint("simulate", &got)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleFingerprint(t, "simulate", &want); fp != want {
			t.Fatalf("fingerprint of %q: %s, want %s", data, fp, want)
		}
		checkSimulateAfterDecode(t, &got)
	})
}

// checkSimulateAfterDecode runs handleSimulate's checks on a decoded body:
// the simulation options, then either the posted solution's decode and
// validation or the posted problem's validation and algorithm names. Their
// verdicts do not matter here, except that a posted solution the codec
// accepts must hold the schedule encoding/json decodes into the map layout.
func checkSimulateAfterDecode(t *testing.T, req *SimulateRequest) {
	t.Helper()
	_, _ = req.Sim.simConfig()
	if len(req.Solution) > 0 {
		if sol, err := core.ReadSolutionJSON(bytes.NewReader(req.Solution)); err == nil {
			checkScheduleMirror(t, req.Solution, sol.Schedule)
		}
	}
	if req.Problem != nil {
		_ = req.Problem.Validate()
		_, _ = req.Options.coreOptions()
	}
}

// checkScheduleMirror requires sched to encode as the "schedule" member of
// the solution document doc does once encoding/json has decoded it into one
// inner map per request, the schedule's layout before its dense rows.
func checkScheduleMirror(t *testing.T, doc []byte, sched *model.Schedule) {
	t.Helper()
	var env struct {
		Schedule *struct {
			InstanceOf map[model.RequestID]map[model.VNFID]int `json:"instanceOf"`
		} `json:"schedule"`
	}
	if err := json.NewDecoder(bytes.NewReader(doc)).Decode(&env); err != nil {
		t.Fatalf("encoding/json rejects the accepted solution %q: %v", doc, err)
	}
	got, err := json.Marshal(sched)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(env.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("schedule of %q:\n got %s\nwant %s", doc, got, want)
	}
}
