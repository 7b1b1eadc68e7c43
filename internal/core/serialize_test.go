package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/wirejson/wirejsontest"
	"nfvchain/internal/workload"
)

func TestSolutionJSONRoundTrip(t *testing.T) {
	p := genProblem(t, 9)
	sol, err := Optimize(p, Options{Seed: 9, LinkDelay: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := sol.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadSolutionJSON(strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.LinkDelay != 0.25 || back.PlacementIterations != sol.PlacementIterations {
		t.Errorf("metadata lost: %+v", back)
	}
	for f, v := range sol.Placement.NodeOf {
		if back.Placement.NodeOf[f] != v {
			t.Fatalf("placement of %s lost", f)
		}
	}
	// The round-tripped solution evaluates identically.
	e1, err := Evaluate(sol)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Evaluate(back)
	if err != nil {
		t.Fatal(err)
	}
	if e1.TotalLatency != e2.TotalLatency || e1.NodesInService != e2.NodesInService {
		t.Errorf("evaluation differs after round trip: %v vs %v", e1.TotalLatency, e2.TotalLatency)
	}
}

func TestReadSolutionJSONRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":        "not json",
		"unknown fields": `{"bogus": 1}`,
		"missing parts":  `{"problem": null, "placement": null, "schedule": null}`,
		"invalid problem": `{"problem": {"nodes":[],"vnfs":[],"requests":[]},
			"placement": {"nodeOf":{}}, "schedule": {"instanceOf":{}}}`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadSolutionJSON(strings.NewReader(in)); err == nil {
				t.Error("bad solution accepted")
			}
		})
	}
}

func TestReadSolutionJSONRejectsInfeasiblePlacement(t *testing.T) {
	p := genProblem(t, 10)
	sol, err := Optimize(p, Options{Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the instance: inflate one VNF's demand beyond any node, so the
	// recorded placement is no longer feasible for the recorded problem.
	sol.Problem.VNFs[0].Demand = 10 * sol.Problem.TotalCapacity()
	var buf strings.Builder
	if err := sol.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSolutionJSON(strings.NewReader(buf.String())); err == nil {
		t.Error("over-capacity placement accepted on read")
	}
}

// The oracle types have the fields and tags of the model types but none of
// their methods, so encoding/json encodes and decodes them by reflection;
// scheduleOracle is the schedule as one inner map per request, its layout
// before the dense rows, and solutionOracle is the Solution envelope as it
// was declared for encoding/json.
type (
	problemOracle   model.Problem
	placementOracle model.Placement
	scheduleOracle  struct {
		InstanceOf map[model.RequestID]map[model.VNFID]int `json:"instanceOf"`
	}
	solutionOracle struct {
		Problem             *problemOracle    `json:"problem"`
		Placement           *placementOracle  `json:"placement"`
		PlacementIterations int               `json:"placementIterations"`
		Schedule            *scheduleOracle   `json:"schedule"`
		Rejected            []model.RequestID `json:"rejected,omitempty"`
		RejectionRate       float64           `json:"rejectionRate"`
		LinkDelay           float64           `json:"linkDelay"`
	}
)

// toOracle is s in the oracle types, with sched as its schedule.
func toOracle(s *Solution, sched *scheduleOracle) solutionOracle {
	return solutionOracle{
		Problem:             (*problemOracle)(s.Problem),
		Placement:           (*placementOracle)(s.Placement),
		PlacementIterations: s.PlacementIterations,
		Schedule:            sched,
		Rejected:            s.Rejected,
		RejectionRate:       s.RejectionRate,
		LinkDelay:           s.LinkDelay,
	}
}

// lookedUp builds the map layout of a schedule without absent, null or {}
// rows from its accessors, not from its JSON form.
func lookedUp(p *model.Problem, s *model.Schedule) *scheduleOracle {
	if s == nil {
		return nil
	}
	out := &scheduleOracle{InstanceOf: map[model.RequestID]map[model.VNFID]int{}}
	on := s.For(p)
	for ri, r := range p.Requests {
		if !on.Assigned(ri) {
			continue
		}
		row := map[model.VNFID]int{}
		for _, f := range r.Chain {
			if k, ok := s.Instance(r.ID, f); ok {
				row[f] = k
			}
		}
		out.InstanceOf[r.ID] = row
	}
	return out
}

// decoded is the map layout of s's JSON form, decoded by encoding/json.
func decoded(t testing.TB, s *model.Schedule) *scheduleOracle {
	t.Helper()
	if s == nil {
		return nil
	}
	var out scheduleOracle
	if err := json.Unmarshal(oracleMarshal(t, s), &out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// oracleReadSolutionJSON is ReadSolutionJSON as it was built on
// encoding/json: a strict json.Decoder, then the same validation, with the
// schedule in the map layout. The schedule is validated by
// model.Schedule, which internal/model holds to the map layout's answers.
func oracleReadSolutionJSON(data []byte) (*solutionOracle, error) {
	var raw solutionOracle
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&raw); err != nil {
		return nil, err
	}
	if raw.Problem == nil || raw.Placement == nil || raw.Schedule == nil {
		return nil, errors.New("missing part")
	}
	p := (*model.Problem)(raw.Problem)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := (*model.Placement)(raw.Placement).Validate(p); err != nil {
		return nil, err
	}
	doc, err := json.Marshal(raw.Schedule)
	if err != nil {
		return nil, err
	}
	var sched model.Schedule
	if err := sched.UnmarshalJSON(doc); err != nil {
		return nil, err
	}
	if err := sched.ValidatePartial(p); err != nil {
		return nil, err
	}
	return &raw, nil
}

func oracleIndent(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func oracleMarshal(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// checkBytes fails unless got is byte-identical to the oracle's want.
func checkBytes(t *testing.T, what string, got, want []byte) {
	t.Helper()
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Errorf("%s differs from encoding/json at byte %d:\n got ...%q\nwant ...%q",
			what, i, got[i:min(len(got), i+60)], want[i:min(len(want), i+60)])
	}
}

// trickyText holds every character the encoders must escape as
// encoding/json does.
const trickyText = "<a href=\"x\">&amp;</a> \\ \x00\x01\x1f\x7f \u2028\u2029 \xff\xe2\x80 sécurité ✓ 🙂"

// trickySolution carries every string and number the encoders must escape
// or format as encoding/json does, and nil-versus-empty in every slice and
// map.
func trickySolution() *Solution {
	const odd = trickyText
	p := &model.Problem{
		Nodes: []model.Node{
			{ID: "n" + odd, Name: odd, Capacity: 1e21, Extras: []float64{0, math.Copysign(0, -1)}},
			{ID: "n2", Capacity: 5e-324, Extras: []float64{}},
			{ID: "n3", Capacity: math.MaxFloat64},
		},
		VNFs: []model.VNF{
			{ID: model.VNFID("f" + odd), Name: odd, Category: odd, Instances: 3, Demand: 1e-7, ServiceRate: 0.1, Extras: []float64{1e-6, 123456789.125}},
			{ID: "f2", Instances: 1, Demand: 0, ServiceRate: 1e20},
		},
		Requests: []model.Request{
			{ID: model.RequestID("r" + odd), Chain: []model.VNFID{model.VNFID("f" + odd), "f2"}, Rate: 1.7976931348623157e308, DeliveryProb: 1},
			{ID: "r-nil", Chain: nil, Rate: 2, DeliveryProb: 0.5},
			{ID: "r-empty", Chain: []model.VNFID{}, Rate: 3, DeliveryProb: 0.25},
		},
	}
	return &Solution{
		Problem:             p,
		Placement:           &model.Placement{NodeOf: map[model.VNFID]model.NodeID{model.VNFID("f" + odd): model.NodeID("n" + odd), "f2": "n2", "a": "", "Z": "z"}},
		PlacementIterations: -7,
		Schedule:            fromOracle(p, trickySchedule()),
		Rejected:            []model.RequestID{"r-nil", model.RequestID(odd)},
		RejectionRate:       1e-7,
		LinkDelay:           math.Copysign(0, -1),
	}
}

// trickySchedule is trickySolution's schedule in the map layout: a full
// row, a null row and a {} row.
func trickySchedule() *scheduleOracle {
	const odd = trickyText
	return &scheduleOracle{InstanceOf: map[model.RequestID]map[model.VNFID]int{
		model.RequestID("r" + odd): {model.VNFID("f" + odd): 2, "f2": 0},
		"r-nil":                    nil,
		"r-empty":                  {},
	}}
}

// fromOracle builds a map-layout schedule on p's index: its null and {}
// rows, which no accessor makes, from their encoding/json form, and every
// entry with Assign (so that IDs that are not valid UTF-8 survive).
func fromOracle(p *model.Problem, m *scheduleOracle) *model.Schedule {
	bare := &scheduleOracle{}
	if m.InstanceOf != nil {
		bare.InstanceOf = map[model.RequestID]map[model.VNFID]int{}
	}
	for r, row := range m.InstanceOf {
		if len(row) == 0 {
			bare.InstanceOf[r] = row
		}
	}
	doc, err := json.Marshal(bare)
	if err != nil {
		panic(err)
	}
	s := model.NewSchedule(model.Compile(p))
	if err := s.UnmarshalJSON(doc); err != nil {
		panic(err)
	}
	for r, row := range m.InstanceOf {
		for f, k := range row {
			s.Assign(r, f, k)
		}
	}
	return s
}

// TestWireJSONMatchesEncodingJSON requires the hand-written encoders to
// write exactly the bytes encoding/json writes: Solution.WriteJSON and
// Problem.WriteJSON against the indented Encoder, and the MarshalJSON
// methods (which json.Marshal, and so the service's fingerprint, calls)
// against reflection.
func TestWireJSONMatchesEncodingJSON(t *testing.T) {
	sols := map[string]*Solution{"tricky": trickySolution()}
	mirrors := map[string]*scheduleOracle{"tricky": trickySchedule()}
	for _, n := range []int{200, 500, 1000} {
		cfg := workload.DefaultConfig()
		cfg.Seed = uint64(n)
		cfg.NumRequests = n
		p, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		scale := 0.6 * p.TotalCapacity() / p.TotalDemand()
		for i := range p.VNFs {
			p.VNFs[i].Demand *= scale
		}
		sol, err := Optimize(p, Options{Seed: uint64(n), LinkDelay: 0.001})
		if err != nil {
			t.Fatal(err)
		}
		sols[fmt.Sprintf("optimized-%d", n)] = sol
		mirrors[fmt.Sprintf("optimized-%d", n)] = lookedUp(p, sol.Schedule)
	}
	empty := trickySolution()
	empty.Rejected = []model.RequestID{}
	empty.Placement.NodeOf = nil
	empty.Problem.Requests = nil
	empty.Problem.VNFs = []model.VNF{}
	empty.Schedule = model.NewSchedule(model.Compile(empty.Problem))
	sols["nil-and-empty"] = empty
	mirrors["nil-and-empty"] = &scheduleOracle{InstanceOf: map[model.RequestID]map[model.VNFID]int{}}
	sols["nil-parts"] = &Solution{RejectionRate: 0.5}

	for name, sol := range sols {
		t.Run(name, func(t *testing.T) {
			var doc bytes.Buffer
			if err := sol.WriteJSON(&doc); err != nil {
				t.Fatal(err)
			}
			checkBytes(t, "Solution.WriteJSON", doc.Bytes(), oracleIndent(t, toOracle(sol, mirrors[name])))
			if sol.Problem == nil {
				return
			}
			var pdoc bytes.Buffer
			if err := sol.Problem.WriteJSON(&pdoc); err != nil {
				t.Fatal(err)
			}
			checkBytes(t, "Problem.WriteJSON", pdoc.Bytes(), oracleIndent(t, (*problemOracle)(sol.Problem)))
			checkBytes(t, "json.Marshal(Problem)", oracleMarshal(t, sol.Problem), oracleMarshal(t, (*problemOracle)(sol.Problem)))
			checkBytes(t, "json.Marshal(Placement)", oracleMarshal(t, sol.Placement), oracleMarshal(t, (*placementOracle)(sol.Placement)))
			checkBytes(t, "json.Marshal(Schedule)", oracleMarshal(t, sol.Schedule), oracleMarshal(t, mirrors[name]))
		})
	}

	bad := trickySolution()
	bad.RejectionRate = math.NaN()
	if err := bad.WriteJSON(io.Discard); err == nil {
		t.Error("NaN rejection rate encoded")
	}
	bad = trickySolution()
	bad.Problem.Nodes[0].Extras[0] = math.Inf(-1)
	if _, err := json.Marshal(bad.Problem); err == nil {
		t.Error("infinite extra capacity marshaled")
	}
}

// smallSolution is a valid solution with one rejected request: the base of
// the fuzz corpus.
func smallSolution() *Solution {
	p := &model.Problem{
		Nodes: []model.Node{{ID: "n1", Name: "rack", Capacity: 10, Extras: []float64{4}}, {ID: "n2", Capacity: 10, Extras: []float64{4}}},
		VNFs: []model.VNF{
			{ID: "fw", Name: "Firewall", Category: "security", Instances: 2, Demand: 1, ServiceRate: 40, Extras: []float64{1}},
			{ID: "nat", Instances: 1, Demand: 1.5, ServiceRate: 30, Extras: []float64{0.5}},
		},
		Requests: []model.Request{
			{ID: "r1", Chain: []model.VNFID{"fw", "nat"}, Rate: 6, DeliveryProb: 0.95},
			{ID: "r2", Chain: []model.VNFID{"fw"}, Rate: 8, DeliveryProb: 0.98},
			{ID: "r3", Chain: []model.VNFID{"nat", "fw"}, Rate: 4, DeliveryProb: 0.9},
		},
	}
	pl := model.NewPlacement()
	pl.Assign("fw", "n1")
	pl.Assign("nat", "n2")
	s := model.NewSchedule(model.Compile(p))
	s.Assign("r1", "fw", 1)
	s.Assign("r1", "nat", 0)
	s.Assign("r2", "fw", 0)
	return &Solution{Problem: p, Placement: pl, PlacementIterations: 3, Schedule: s,
		Rejected: []model.RequestID{"r3"}, RejectionRate: 1.0 / 3, LinkDelay: 0.001}
}

// solutionMaps tells which objects of a solution document decode into
// maps: nodeOf, instanceOf, and each request's row inside instanceOf.
func solutionMaps(path []string) bool {
	n := len(path)
	return n >= 1 && (strings.EqualFold(path[n-1], "nodeOf") || strings.EqualFold(path[n-1], "instanceOf")) ||
		n >= 2 && strings.EqualFold(path[n-2], "instanceOf")
}

func FuzzReadSolutionJSON(f *testing.F) {
	sol := smallSolution()
	var doc bytes.Buffer
	if err := sol.WriteJSON(&doc); err != nil {
		f.Fatal(err)
	}
	compact, err := json.Marshal(toOracle(sol, lookedUp(sol.Problem, sol.Schedule)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc.Bytes())
	f.Add(compact)
	variants, err := wirejsontest.NullVariants(compact)
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range variants {
		f.Add(v)
	}
	s := string(compact)
	for _, seed := range []string{
		// Case-folded keys, including the Kelvin sign and the long s.
		strings.Replace(s, `"problem"`, `"PROBLEM"`, 1),
		strings.Replace(s, `"nodeOf"`, `"nodeof"`, 1),
		strings.Replace(s, `"instanceOf"`, "\"in\u017ftanceOf\"", 1),
		strings.Replace(s, `"linkDelay"`, "\"lin\u212ADelay\"", 1),
		strings.Replace(s, `"placementIterations"`, `"placementiterations"`, 1),
		// Map keys are matched exactly: a case variant is another VNF.
		strings.Replace(s, `"nodeOf":{"fw"`, `"nodeOf":{"FW":"n1","fw"`, 1),
		// Empty arrays and objects decode to empty, not nil, values.
		strings.Replace(s, `"rejected":["r3"]`, `"rejected":[]`, 1),
		strings.Replace(s, `"instanceOf":{`, `"instanceOf":{"r3":{},`, 1),
		// Trailing data after the first value is not examined.
		s + " garbage", s + "]", s + `{"problem":null}`,
		// Escapes in keys and values.
		strings.Replace(s, `"nodeOf":{"fw":"n1"`, `"nodeOf":{"f\u0077":"n\u0031"`, 1),
		strings.Replace(s, `"rejected":["r3"]`, `"rejected":["r3","\ud83d\ude00\ud83d \u2028 <&>\n"]`, 1),
		strings.Replace(s, `"rejected":["r3"]`, "\"rejected\":[\"r\xff\"]", 1),
		// Numbers into int and float fields.
		strings.Replace(s, `"placementIterations":3`, `"placementIterations":3.0`, 1),
		strings.Replace(s, `"placementIterations":3`, `"placementIterations":1e2`, 1),
		strings.Replace(s, `"placementIterations":3`, `"placementIterations":-0`, 1),
		strings.Replace(s, `"placementIterations":3`, `"placementIterations":99999999999999999999`, 1),
		strings.Replace(s, `"fw":1`, `"fw":1.0`, 1),
		strings.Replace(s, `"fw":1`, `"fw":-0`, 1),
		strings.Replace(s, `"linkDelay":0.001`, `"linkDelay":1e-400`, 1),
		strings.Replace(s, `"linkDelay":0.001`, `"linkDelay":-1e400`, 1),
		// The permitted difference: repeated keys in structs and maps.
		strings.Replace(s, `"placementIterations":3`, `"placementIterations":3,"placementIterations":4`, 1),
		strings.Replace(s, `"placementIterations":3`, `"placementIterations":3,"PlacementIterations":4`, 1),
		strings.Replace(s, `"nodeOf":{"fw":"n1"`, `"nodeOf":{"fw":"n2","fw":"n1"`, 1),
		strings.Replace(s, `"instanceOf":{`, `"instanceOf":{"r2":{"fw":1},`, 1),
		strings.Replace(s, `"r2":{"fw":0}`, `"r2":{"fw":1,"fw":0}`, 1),
		// Unknown fields, missing parts and malformed input.
		strings.Replace(s, `"linkDelay"`, `"bogus":1,"linkDelay"`, 1),
		`{"problem":null,"placement":null,"schedule":null}`, `{}`, `null`, ``, `[`, s[:len(s)/2],
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := ReadSolutionJSON(bytes.NewReader(data))
		want, wantErr := oracleReadSolutionJSON(data)
		var view *solutionOracle
		if gotErr == nil {
			v := toOracle(got, decoded(t, got.Schedule))
			view = &v
		}
		if !wirejsontest.CompareDecode(t, data, view, gotErr, want, wantErr, solutionMaps) {
			return
		}
		// Whatever the decoder accepts, the writer re-encodes exactly as
		// encoding/json does.
		var buf bytes.Buffer
		if err := got.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if wantDoc := oracleIndent(t, want); !bytes.Equal(buf.Bytes(), wantDoc) {
			t.Fatalf("re-encoding %q:\n got %s\nwant %s", data, buf.Bytes(), wantDoc)
		}
	})
}

// TestReadSolutionJSONScheduleFirst reads a solution whose schedule comes
// before its problem, so its rows are decoded before any index exists.
func TestReadSolutionJSONScheduleFirst(t *testing.T) {
	sol := smallSolution()
	var doc bytes.Buffer
	if err := sol.WriteJSON(&doc); err != nil {
		t.Fatal(err)
	}
	var members map[string]json.RawMessage
	if err := json.Unmarshal(doc.Bytes(), &members); err != nil {
		t.Fatal(err)
	}
	var reordered bytes.Buffer
	reordered.WriteString("{")
	for i, key := range []string{"schedule", "rejected", "placement", "problem", "placementIterations", "rejectionRate", "linkDelay"} {
		if i > 0 {
			reordered.WriteString(",")
		}
		fmt.Fprintf(&reordered, "%q:%s", key, members[key])
	}
	reordered.WriteString("}")
	back, err := ReadSolutionJSON(&reordered)
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := back.WriteJSON(&again); err != nil {
		t.Fatal(err)
	}
	checkBytes(t, "re-encoded solution", again.Bytes(), doc.Bytes())
	if _, err := Evaluate(back); err != nil {
		t.Fatal(err)
	}
}
