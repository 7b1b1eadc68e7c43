package model

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"nfvchain/internal/rng"
	"nfvchain/internal/wirejson/wirejsontest"
)

// mapSchedule is the schedule as one inner map per request, the layout the
// dense rows replaced. encoding/json encodes and decodes it by reflection,
// and its methods are the old ones, except that they walk their maps in key
// order, so that of several faults they report the one the dense layout
// reports (any of them was correct before).
type mapSchedule struct {
	InstanceOf map[RequestID]map[VNFID]int `json:"instanceOf"`
}

func (s *mapSchedule) Instance(r RequestID, f VNFID) (int, bool) {
	k, ok := s.InstanceOf[r][f]
	return k, ok
}

func (s *mapSchedule) Validate(p *Problem) error        { return s.validate(p, false) }
func (s *mapSchedule) ValidatePartial(p *Problem) error { return s.validate(p, true) }

func (s *mapSchedule) validate(p *Problem, partial bool) error {
	for _, r := range p.Requests {
		m := s.InstanceOf[r.ID]
		if partial && len(m) == 0 {
			continue
		}
		for _, f := range r.Chain {
			k, ok := m[f]
			if !ok {
				if partial {
					return fmt.Errorf("schedule: request %s partially assigned: missing vnf %s", r.ID, f)
				}
				return fmt.Errorf("schedule: request %s unassigned for vnf %s", r.ID, f)
			}
			vnf, defined := p.VNF(f)
			if !defined {
				return fmt.Errorf("schedule: request %s assigned to undefined vnf %s", r.ID, f)
			}
			if k < 0 || k >= vnf.Instances {
				return fmt.Errorf("schedule: request %s vnf %s instance %d outside [0,%d)", r.ID, f, k, vnf.Instances)
			}
		}
		for _, f := range sortedKeys(m, nil) {
			if !r.Uses(f) {
				return fmt.Errorf("schedule: request %s assigned to vnf %s outside its chain", r.ID, f)
			}
		}
	}
	known := make(map[RequestID]bool, len(p.Requests))
	for _, r := range p.Requests {
		known[r.ID] = true
	}
	for _, r := range sortedKeys(s.InstanceOf, nil) {
		if !known[r] {
			return fmt.Errorf("schedule: unknown request %s", r)
		}
	}
	return nil
}

func (s *mapSchedule) InstanceLoads(p *Problem, f VNFID) []float64 {
	vnf, ok := p.VNF(f)
	if !ok {
		return nil
	}
	loads := make([]float64, vnf.Instances)
	for _, r := range p.Requests {
		if !r.Uses(f) {
			continue
		}
		if k, assigned := s.Instance(r.ID, f); assigned && k >= 0 && k < len(loads) {
			loads[k] += r.EffectiveRate()
		}
	}
	return loads
}

// mirrorOf decodes s's JSON form into the map layout.
func mirrorOf(t testing.TB, s *Schedule) *mapSchedule {
	t.Helper()
	doc, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var m mapSchedule
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatalf("%s: %v", doc, err)
	}
	return &m
}

// errText is err's message, or "" for nil.
func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// checkAgainstOracle requires s to answer as the map layout m does on p:
// the same Validate and ValidatePartial errors, InstanceLoads bits,
// Instance answers (for every pair of p's IDs and the given extra IDs),
// Assigned verdicts and JSON bytes.
func checkAgainstOracle(t *testing.T, p *Problem, s *Schedule, m *mapSchedule, what string) {
	t.Helper()
	if got, want := errText(s.Validate(p)), errText(m.Validate(p)); got != want {
		t.Fatalf("%s: Validate = %q, oracle %q", what, got, want)
	}
	if got, want := errText(s.ValidatePartial(p)), errText(m.ValidatePartial(p)); got != want {
		t.Fatalf("%s: ValidatePartial = %q, oracle %q", what, got, want)
	}
	for _, f := range append(p.VNFs, VNF{ID: "ghost"}) {
		got, want := s.InstanceLoads(p, f.ID), m.InstanceLoads(p, f.ID)
		if len(got) != len(want) || (got == nil) != (want == nil) {
			t.Fatalf("%s: InstanceLoads(%s) = %v, oracle %v", what, f.ID, got, want)
		}
		for k := range got {
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Fatalf("%s: InstanceLoads(%s)[%d] = %v, oracle %v", what, f.ID, k, got[k], want[k])
			}
		}
	}
	reqs := []RequestID{"ghost"}
	for _, r := range p.Requests {
		reqs = append(reqs, r.ID)
	}
	for _, r := range reqs {
		for _, f := range append(p.VNFs, VNF{ID: "ghost"}) {
			gk, gok := s.Instance(r, f.ID)
			wk, wok := m.Instance(r, f.ID)
			if gk != wk || gok != wok {
				t.Fatalf("%s: Instance(%s, %s) = %d, %v, oracle %d, %v", what, r, f.ID, gk, gok, wk, wok)
			}
		}
	}
	on := s.For(p)
	for ri, r := range p.Requests {
		if got, want := on.Assigned(ri), len(m.InstanceOf[r.ID]) > 0; got != want {
			t.Fatalf("%s: Assigned(%s) = %v, oracle %v", what, r.ID, got, want)
		}
	}
	got, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: JSON\n got %s\nwant %s", what, got, want)
	}
}

// randomScheduleCase draws a valid problem whose IDs sort in another order
// than they are listed in, and a map-layout schedule over it with every row
// shape: absent, null, {}, full and partial chains, entries outside the
// chain, instances outside [0, M_f) and outside int32, and unknown requests.
func randomScheduleCase(st *rng.Stream) (*Problem, *mapSchedule) {
	vnfIDs := []VNFID{"nat", "fw", "ids", "Z", "a", "f\u00e9", "lb", "wan", "b1", "b10", "b2"}
	reqIDs := []RequestID{"r1", "r10", "r2", "R", "x", "r\u00e9", "q", "r0", "a", "zz", "m", "r3"}
	st.Shuffle(len(vnfIDs), func(i, j int) { vnfIDs[i], vnfIDs[j] = vnfIDs[j], vnfIDs[i] })
	st.Shuffle(len(reqIDs), func(i, j int) { reqIDs[i], reqIDs[j] = reqIDs[j], reqIDs[i] })
	p := &Problem{Nodes: []Node{{ID: "n", Capacity: 100}}}
	for _, id := range vnfIDs[:1+st.IntN(6)] {
		p.VNFs = append(p.VNFs, VNF{ID: id, Instances: 1 + st.IntN(3), Demand: 1, ServiceRate: 100})
	}
	for _, id := range reqIDs[:st.IntN(9)] {
		perm := st.Perm(len(p.VNFs))
		var chain []VNFID
		for _, f := range perm[:1+st.IntN(min(3, len(perm)))] {
			chain = append(chain, p.VNFs[f].ID)
		}
		p.Requests = append(p.Requests, Request{ID: id, Chain: chain, Rate: 1 + 9*st.Float64(), DeliveryProb: 0.5 + 0.5*st.Float64()})
	}
	m := &mapSchedule{}
	if st.IntN(20) == 0 {
		return p, m // instanceOf null
	}
	m.InstanceOf = map[RequestID]map[VNFID]int{}
	fault := func(f VNF) int {
		switch st.IntN(4) {
		case 0:
			return -1
		case 1:
			return f.Instances
		case 2:
			return 1 << 40
		}
		return math.MinInt32
	}
	rows := p.Requests
	if st.IntN(4) == 0 {
		rows = append(rows[:len(rows):len(rows)], Request{ID: reqIDs[len(reqIDs)-1], Chain: []VNFID{p.VNFs[0].ID}})
	}
	for _, r := range rows {
		switch c := st.IntN(20); {
		case c < 3:
			continue // absent
		case c < 5:
			m.InstanceOf[r.ID] = nil
			continue
		case c < 7:
			m.InstanceOf[r.ID] = map[VNFID]int{}
			continue
		}
		row := map[VNFID]int{}
		for _, f := range r.Chain {
			vnf, _ := p.VNF(f)
			switch c := st.IntN(30); {
			case c == 0:
				continue // partial chain
			case c == 1:
				row[f] = fault(vnf)
			default:
				row[f] = st.IntN(vnf.Instances)
			}
		}
		if st.IntN(15) == 0 {
			f := p.VNFs[st.IntN(len(p.VNFs))].ID
			if !slices.Contains(r.Chain, f) {
				row[f] = st.IntN(2)
			}
		}
		if st.IntN(25) == 0 {
			row["ghost"] = 0
		}
		m.InstanceOf[r.ID] = row
	}
	return p, m
}

// TestScheduleMatchesMapOracle builds each random schedule four ways
// (Assign calls, decoding with and without the problem's index, and a Clone
// of the first), rejects some requests as admission control does, and
// requires every answer to match the map layout's.
func TestScheduleMatchesMapOracle(t *testing.T) {
	st := rng.New(24)
	for iter := 0; iter < 300; iter++ {
		p, m := randomScheduleCase(st)
		if err := p.Validate(); err != nil {
			t.Fatalf("case %d: %v", iter, err)
		}
		doc, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		ix := Compile(p)
		var unbound Schedule
		if err := json.Unmarshal(doc, &unbound); err != nil {
			t.Fatalf("case %d: %s: %v", iter, doc, err)
		}
		bound := NewSchedule(ix)
		if err := bound.UnmarshalJSON(doc); err != nil {
			t.Fatalf("case %d: %s: %v", iter, doc, err)
		}
		what := fmt.Sprintf("case %d %s", iter, doc)
		checkAgainstOracle(t, p, &unbound, m, what+" (decoded unbound)")
		checkAgainstOracle(t, p, bound, m, what+" (decoded on the index)")
		checkAgainstOracle(t, p, unbound.For(p), m, what+" (laid out)")

		// Assign reproduces every row that has an entry; null and {} rows
		// have none, so the Assign build leaves them absent.
		assigned, am := NewSchedule(ix), &mapSchedule{InstanceOf: map[RequestID]map[VNFID]int{}}
		for _, r := range sortedKeys(m.InstanceOf, nil) {
			for _, f := range sortedKeys(m.InstanceOf[r], nil) {
				assigned.Assign(r, f, m.InstanceOf[r][f])
				if am.InstanceOf[r] == nil {
					am.InstanceOf[r] = map[VNFID]int{}
				}
				am.InstanceOf[r][f] = m.InstanceOf[r][f]
			}
		}
		checkAgainstOracle(t, p, assigned, am, what+" (assigned)")
		clone := assigned.Clone()
		checkAgainstOracle(t, p, clone, am, what+" (clone)")

		// Reject some requests from the clone; the original keeps them.
		before := &mapSchedule{InstanceOf: map[RequestID]map[VNFID]int{}}
		for r, row := range am.InstanceOf {
			before.InstanceOf[r] = row
		}
		for ri, r := range p.Requests {
			if st.IntN(3) == 0 {
				clone.Remove(ri)
				delete(am.InstanceOf, r.ID)
			}
		}
		checkAgainstOracle(t, p, clone, am, what+" (after rejections)")
		checkAgainstOracle(t, p, assigned, before, what+" (original after rejections)")
	}
}

// scheduleMaps tells which objects of a schedule document decode into
// maps: instanceOf and each request's row inside it.
func scheduleMaps(path []string) bool {
	n := len(path)
	return n == 1 && strings.EqualFold(path[0], "instanceOf") || n == 2 && strings.EqualFold(path[0], "instanceOf")
}

// FuzzScheduleJSON decodes a schedule on its own, with no problem bound, as
// encoding/json does through UnmarshalJSON, and requires the map layout's
// verdict, value and bytes; then it lays the schedule out on a fixed problem
// and requires the map layout's answers there too.
func FuzzScheduleJSON(f *testing.F) {
	for _, seed := range []string{
		`{"instanceOf":{"r1":{"fw":0,"nat":0},"r2":{"fw":1},"r3":{"fw":0,"ids":2,"nat":0}}}`,
		`{"instanceOf":{"r1":{"fw":1,"nat":0},"r2":null,"r3":{}}}`,
		`{"instanceOf":{"r2":{"fw":1,"nat":0},"ghost":{"fw":0},"r3":{"ids":-1,"fw":99999999999,"nat":0}}}`,
		`{"instanceOf":{"r3":{"nat":0,"fw":0,"ids":2},"r1":{"nat":0,"fw":0}}}`,
		`{"instanceOf":{"r1":{"fw":-2147483648,"nat":2147483647}}}`,
		`{"instanceOf":{"r1":{"fw":0,"fw":1}}}`, `{"instanceOf":{"r1":{},"r1":null}}`,
		`{"instanceOf":{"ghost":null,"ghost":{}}}`,
		`{"INSTANCEOF":{"r1":{"fw":0}}}`, `{"instanceOf":null}`, `{}`, `null`, `{"instanceOf":{"r1":{"fw":1.0}}}`,
		`{"instanceOf":{"r1":{"fw":null}}}`, `{"instanceOf":{"r1":[]}}`, `{"bogus":1}`, ``, `{"instanceOf":{"r1":{"fw":0}}} x`,
	} {
		f.Add([]byte(seed))
	}
	p := testProblem()
	f.Fuzz(func(t *testing.T, data []byte) {
		var got Schedule
		gotErr := json.Unmarshal(data, &got)
		// Schedule.UnmarshalJSON is strict, so the oracle disallows
		// unknown fields.
		var want mapSchedule
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&want)
		if wantErr == nil && json.Unmarshal(data, new(any)) != nil {
			wantErr = errors.New("trailing data") // json.Unmarshal reads one value only
		}
		var gotMirror *mapSchedule
		if gotErr == nil {
			gotMirror = mirrorOf(t, &got)
		}
		if !wirejsontest.CompareDecode(t, data, gotMirror, gotErr, &want, wantErr, scheduleMaps) {
			return
		}
		checkAgainstOracle(t, p, &got, &want, string(data))
	})
}
