package simulate

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/scheduling"
	"nfvchain/internal/stats"
	"nfvchain/internal/wirejson"
	"nfvchain/internal/wirejson/wirejsontest"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// tinyProblem builds a small fixed instance: two nodes, two VNFs, three
// chained requests, sized so a BufferSize-1 run produces drops (populating
// the per-instance maps) without generating an unwieldy sample set.
func tinyProblem(t testing.TB) (*model.Problem, *model.Schedule, *model.Placement) {
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
	sched, err := scheduling.ScheduleAll(p, scheduling.RCKK{})
	if err != nil {
		t.Fatal(err)
	}
	pl := model.NewPlacement()
	pl.Assign("fw", "n1")
	pl.Assign("nat", "n2")
	return p, sched, pl
}

// tinyResults runs the tiny fixture deterministically.
func tinyResults(t testing.TB) *Results {
	t.Helper()
	p, sched, pl := tinyProblem(t)
	res, err := Run(Config{
		Problem:    p,
		Schedule:   sched,
		Placement:  pl,
		Horizon:    10,
		Warmup:     1,
		LinkDelay:  0.001,
		BufferSize: 1,
		Seed:       7,
		FaultPlan: &FaultPlan{Outages: []Outage{
			{Node: "n2", DownAt: 4, UpAt: 5},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// encodeResults renders res through WriteJSON.
func encodeResults(t testing.TB, res *Results) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestResultsJSONGolden pins the wire encoding to a committed fixture:
// field renames, ordering changes, or float drift all break this test.
// Regenerate intentionally with `go test ./internal/simulate -run Golden -update`.
func TestResultsJSONGolden(t *testing.T) {
	got := encodeResults(t, tinyResults(t))
	path := filepath.Join("testdata", "results.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("results JSON drifted from golden %s (len %d vs %d); rerun with -update only for intentional format changes",
			path, len(got), len(want))
	}
}

// TestResultsJSONRoundTrip asserts decode(encode(res)) preserves every field
// and that re-encoding yields byte-identical JSON (the stable-encoding
// property the service result cache relies on).
func TestResultsJSONRoundTrip(t *testing.T) {
	res := tinyResults(t)
	first := encodeResults(t, res)
	back, err := ReadResultsJSON(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	second := encodeResults(t, back)
	if !bytes.Equal(first, second) {
		t.Error("re-encoded results differ from the original encoding")
	}
	if back.Generated != res.Generated || back.Delivered != res.Delivered ||
		back.Dropped != res.Dropped || back.InFlight != res.InFlight ||
		back.FailureDrops != res.FailureDrops {
		t.Errorf("scalar counters drifted: got %+v", back)
	}
	if back.Latency != res.Latency {
		t.Errorf("latency summary drifted: %v vs %v", back.Latency, res.Latency)
	}
	if !reflect.DeepEqual(back.Utilization, res.Utilization) {
		t.Errorf("utilization map drifted")
	}
	if !reflect.DeepEqual(back.DroppedByInstance, res.DroppedByInstance) {
		t.Errorf("dropped-by-instance map drifted")
	}
	if !reflect.DeepEqual(back.Downtime, res.Downtime) {
		t.Errorf("downtime map drifted")
	}
	if !reflect.DeepEqual(back.PerRequest, res.PerRequest) {
		t.Errorf("per-request summaries drifted")
	}
	if !reflect.DeepEqual(back.PerInstance, res.PerInstance) {
		t.Errorf("per-instance summaries drifted")
	}
	if len(back.LatencySamples) != len(res.LatencySamples) {
		t.Fatalf("sample count drifted: %d vs %d", len(back.LatencySamples), len(res.LatencySamples))
	}
	for i := range back.LatencySamples {
		if back.LatencySamples[i] != res.LatencySamples[i] {
			t.Fatalf("sample %d drifted: %v vs %v", i, back.LatencySamples[i], res.LatencySamples[i])
		}
	}
}

// TestReadResultsJSONStrict rejects unknown fields and bad agenda spellings.
func TestReadResultsJSONStrict(t *testing.T) {
	if _, err := ReadResultsJSON(strings.NewReader(`{"horizon": 1, "bogus": 2}`)); err == nil {
		t.Error("unknown field accepted")
	}
	if _, err := ReadResultsJSON(strings.NewReader(`{"horizon": 1, "agenda": "calendar"}`)); err == nil {
		t.Error("unknown agenda kind accepted")
	}
	if _, err := ReadResultsJSON(strings.NewReader(`not json`)); err == nil {
		t.Error("malformed JSON accepted")
	}
}

// TestReadResultsJSONLegacyAgenda keeps older documents readable: the golden
// fixture with its "heap" agenda swapped for the "ladder" an older writer
// could record still decodes, and re-encodes to the golden bytes. Unknown
// spellings stay rejected (TestReadResultsJSONStrict).
func TestReadResultsJSONLegacyAgenda(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "results.golden.json"))
	if err != nil {
		t.Fatal(err)
	}
	const heap = `"agenda": "heap"`
	if !bytes.Contains(golden, []byte(heap)) {
		t.Fatalf("golden fixture lacks %s", heap)
	}
	ladder := bytes.Replace(golden, []byte(heap), []byte(`"agenda": "ladder"`), 1)
	back, err := ReadResultsJSON(bytes.NewReader(ladder))
	if err != nil {
		t.Fatalf("legacy ladder document rejected: %v", err)
	}
	if got := encodeResults(t, back); !bytes.Equal(got, golden) {
		t.Error("legacy ladder document does not re-encode to the golden bytes")
	}
}

// resultsOracle is the Results wire form as it was declared for
// encoding/json, kept as the oracle the hand-written codec must match. Its
// Summary members use stats.Summary's own codec, which has its own
// differential test against encoding/json in internal/stats.
type resultsOracle struct {
	Horizon float64 `json:"horizon"`
	Warmup  float64 `json:"warmup"`
	Agenda  string  `json:"agenda"`

	Generated      int           `json:"generated"`
	Delivered      int           `json:"delivered"`
	Latency        stats.Summary `json:"latency"`
	LatencySamples []float64     `json:"latencySamples,omitempty"`

	Retransmissions   int                `json:"retransmissions"`
	Dropped           int                `json:"dropped"`
	DroppedByInstance []countRowOracle   `json:"droppedByInstance,omitempty"`
	DropRetransmits   int                `json:"dropRetransmits"`
	InFlight          int                `json:"inFlight"`
	Shed              int                `json:"shed,omitempty"`
	FailureDrops      int                `json:"failureDrops"`
	FailureDropsByIns []countRowOracle   `json:"failureDropsByInstance,omitempty"`
	FailRetransmits   int                `json:"failRetransmits"`
	Downtime          map[string]float64 `json:"downtime,omitempty"`

	Availability float64 `json:"availability"`

	Utilization []valueRowOracle          `json:"utilization,omitempty"`
	MeanJobs    []valueRowOracle          `json:"meanJobs,omitempty"`
	PerRequest  map[string]*stats.Summary `json:"perRequest,omitempty"`
	PerInstance []summaryRowOracle        `json:"perInstance,omitempty"`
}

type countRowOracle struct {
	VNF      model.VNFID `json:"vnf"`
	Instance int         `json:"instance"`
	Count    int         `json:"count"`
}

type valueRowOracle struct {
	VNF      model.VNFID `json:"vnf"`
	Instance int         `json:"instance"`
	Value    float64     `json:"value"`
}

type summaryRowOracle struct {
	VNF      model.VNFID   `json:"vnf"`
	Instance int           `json:"instance"`
	Summary  stats.Summary `json:"summary"`
}

func toResultsOracle(r *Results) resultsOracle {
	o := resultsOracle{
		Horizon: r.Horizon, Warmup: r.Warmup, Agenda: "heap",
		Generated: r.Generated, Delivered: r.Delivered, Latency: r.Latency, LatencySamples: r.LatencySamples,
		Retransmissions: r.Retransmissions, Dropped: r.Dropped, DropRetransmits: r.DropRetransmits,
		InFlight: r.InFlight, Shed: r.Shed, FailureDrops: r.FailureDrops, FailRetransmits: r.FailRetransmits,
		Availability: r.Availability,
	}
	for _, k := range sortedKeys(r.DroppedByInstance) {
		o.DroppedByInstance = append(o.DroppedByInstance, countRowOracle{k.VNF, k.Instance, r.DroppedByInstance[k]})
	}
	for _, k := range sortedKeys(r.FailureDropsByInstance) {
		o.FailureDropsByIns = append(o.FailureDropsByIns, countRowOracle{k.VNF, k.Instance, r.FailureDropsByInstance[k]})
	}
	for _, k := range sortedKeys(r.Utilization) {
		o.Utilization = append(o.Utilization, valueRowOracle{k.VNF, k.Instance, r.Utilization[k]})
	}
	for _, k := range sortedKeys(r.MeanJobs) {
		o.MeanJobs = append(o.MeanJobs, valueRowOracle{k.VNF, k.Instance, r.MeanJobs[k]})
	}
	for _, k := range sortedKeys(r.PerInstance) {
		o.PerInstance = append(o.PerInstance, summaryRowOracle{k.VNF, k.Instance, *r.PerInstance[k]})
	}
	if len(r.Downtime) > 0 {
		o.Downtime = make(map[string]float64)
		for n, dt := range r.Downtime {
			o.Downtime[string(n)] = dt
		}
	}
	if len(r.PerRequest) > 0 {
		o.PerRequest = make(map[string]*stats.Summary)
		for id, s := range r.PerRequest {
			o.PerRequest[string(id)] = s
		}
	}
	return o
}

// oracleEncode is WriteJSON as it was built on encoding/json.
func oracleEncode(t testing.TB, r *Results) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(toResultsOracle(r)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oracleRead is ReadResultsJSON as it was built on encoding/json. It also
// returns the decoded wire form, so a caller can tell the inputs the codec
// rejects on purpose (repeated rows, null per-request summaries).
func oracleRead(data []byte) (*Results, *resultsOracle, error) {
	var o resultsOracle
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&o); err != nil {
		return nil, nil, err
	}
	switch o.Agenda {
	case "heap", "ladder", "auto":
	default:
		return nil, nil, fmt.Errorf("unknown agenda %q", o.Agenda)
	}
	r := &Results{
		Horizon: o.Horizon, Warmup: o.Warmup, Generated: o.Generated, Delivered: o.Delivered,
		Latency: o.Latency, LatencySamples: o.LatencySamples, Retransmissions: o.Retransmissions,
		Dropped: o.Dropped, DroppedByInstance: map[InstanceKey]int{}, DropRetransmits: o.DropRetransmits,
		InFlight: o.InFlight, Shed: o.Shed, FailureDrops: o.FailureDrops,
		FailureDropsByInstance: map[InstanceKey]int{}, FailRetransmits: o.FailRetransmits,
		Downtime: map[model.NodeID]float64{}, Availability: o.Availability,
		Utilization: map[InstanceKey]float64{}, MeanJobs: map[InstanceKey]float64{},
		PerRequest: map[model.RequestID]*stats.Summary{}, PerInstance: map[InstanceKey]*stats.Summary{},
	}
	for _, e := range o.DroppedByInstance {
		r.DroppedByInstance[InstanceKey{e.VNF, e.Instance}] = e.Count
	}
	for _, e := range o.FailureDropsByIns {
		r.FailureDropsByInstance[InstanceKey{e.VNF, e.Instance}] = e.Count
	}
	for n, dt := range o.Downtime {
		r.Downtime[model.NodeID(n)] = dt
	}
	for _, e := range o.Utilization {
		r.Utilization[InstanceKey{e.VNF, e.Instance}] = e.Value
	}
	for _, e := range o.MeanJobs {
		r.MeanJobs[InstanceKey{e.VNF, e.Instance}] = e.Value
	}
	for id, s := range o.PerRequest {
		r.PerRequest[model.RequestID(id)] = s
	}
	for _, e := range o.PerInstance {
		s := e.Summary
		r.PerInstance[InstanceKey{e.VNF, e.Instance}] = &s
	}
	return r, &o, nil
}

// deliberatelyRejected reports whether the wire form holds what the codec
// rejects and encoding/json accepted: two rows for one instance, or a null
// per-request summary.
func deliberatelyRejected(o *resultsOracle) bool {
	seen := map[string]map[InstanceKey]bool{}
	dup := func(table string, k InstanceKey) bool {
		if seen[table] == nil {
			seen[table] = map[InstanceKey]bool{}
		}
		d := seen[table][k]
		seen[table][k] = true
		return d
	}
	for _, e := range o.DroppedByInstance {
		if dup("dropped", InstanceKey{e.VNF, e.Instance}) {
			return true
		}
	}
	for _, e := range o.FailureDropsByIns {
		if dup("failure", InstanceKey{e.VNF, e.Instance}) {
			return true
		}
	}
	for _, e := range o.Utilization {
		if dup("util", InstanceKey{e.VNF, e.Instance}) {
			return true
		}
	}
	for _, e := range o.MeanJobs {
		if dup("jobs", InstanceKey{e.VNF, e.Instance}) {
			return true
		}
	}
	for _, e := range o.PerInstance {
		if dup("inst", InstanceKey{e.VNF, e.Instance}) {
			return true
		}
	}
	for _, s := range o.PerRequest {
		if s == nil {
			return true
		}
	}
	return false
}

// resultsMaps marks the objects of a results document that decode into
// maps: the downtime and per-request tables.
func resultsMaps(path []string) bool {
	return len(path) == 1 && (strings.EqualFold(path[0], "downtime") || strings.EqualFold(path[0], "perRequest"))
}

// desResults runs the DES over fixtures that fill every part of a Results:
// buffer drops, scheduled outages and random faults under both failure
// policies, control-plane shedding, and fault-free runs whose instance and
// node tables stay empty.
func desResults(t testing.TB) []*Results {
	t.Helper()
	p, sched, pl := tinyProblem(t)
	var out []*Results
	run := func(cfg Config) {
		t.Helper()
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, res)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		base := Config{Problem: p, Schedule: sched, Placement: pl, Horizon: 5, Warmup: 0.5, LinkDelay: 0.001, Seed: seed}
		run(base)
		drops := base
		drops.BufferSize = 1
		drops.DropPolicy = DropRetransmit
		drops.RetransmitDelay = 0.01
		run(drops)
		faults := base
		faults.BufferSize = 4
		faults.FaultPlan = &FaultPlan{MTBF: 1, MTTR: 0.2, Outages: []Outage{{Node: "n2", DownAt: 1, UpAt: 1.5}}}
		run(faults)
		faults.FailurePolicy = FailRetransmit
		faults.RetransmitDelay = 0.01
		run(faults)
		shed := controlConfig(onTick(func(now float64, cp *ControlPlane) {
			if err := cp.SetShedFraction(0.25); err != nil {
				t.Fatal(err)
			}
		}), 1)
		shed.Seed = seed
		run(shed)
	}
	// Every optional part is present in some run and absent in another.
	for name, size := range map[string]func(*Results) int{
		"shed":                   func(r *Results) int { return r.Shed },
		"droppedByInstance":      func(r *Results) int { return len(r.DroppedByInstance) },
		"failureDropsByInstance": func(r *Results) int { return len(r.FailureDropsByInstance) },
		"failRetransmits":        func(r *Results) int { return r.FailRetransmits },
		"downtime":               func(r *Results) int { return len(r.Downtime) },
	} {
		var with, without bool
		for _, r := range out {
			with = with || size(r) > 0
			without = without || size(r) == 0
		}
		if !with || !without {
			t.Fatalf("fixtures do not cover %s both ways", name)
		}
	}
	return out
}

// handMadeResults covers what the DES rarely writes: floats at the edges
// of encoding/json's formats, HTML and U+2028 in node and request IDs, a
// zero Results and one with empty, non-nil maps.
func handMadeResults() []*Results {
	var sum stats.Summary
	for _, x := range []float64{1e-7, 1e21, 5e-324} {
		sum.Add(x)
	}
	odd := &Results{
		Horizon: 1e21, Warmup: 1e-7, Generated: 3, Delivered: 2, Latency: sum,
		LatencySamples:    []float64{1e-7, 1e21, 5e-324, 0, -0.5, 123456789.125},
		DroppedByInstance: map[InstanceKey]int{{VNF: "<fw>", Instance: 1}: 2, {VNF: "<fw>", Instance: 0}: 1, {VNF: "a&b", Instance: 3}: 4},
		Shed:              7,
		Downtime:          map[model.NodeID]float64{"n<1>": 5e-324, "n\u2028two": 1e21, "n&3": 0.25},
		Availability:      1e-7,
		Utilization:       map[InstanceKey]float64{{VNF: "nat\u2029", Instance: 0}: 1e-7},
		MeanJobs:          map[InstanceKey]float64{{VNF: "nat\u2029", Instance: 0}: 1e21},
		PerRequest:        map[model.RequestID]*stats.Summary{"r<1>": &sum, "r\u2028&2": {}, "r\"3\\": &sum},
		PerInstance:       map[InstanceKey]*stats.Summary{{VNF: "<fw>", Instance: 0}: &sum, {VNF: "fw", Instance: 2}: {}},
	}
	empty := &Results{
		DroppedByInstance: map[InstanceKey]int{}, FailureDropsByInstance: map[InstanceKey]int{},
		Downtime: map[model.NodeID]float64{}, Utilization: map[InstanceKey]float64{}, MeanJobs: map[InstanceKey]float64{},
		PerRequest: map[model.RequestID]*stats.Summary{}, PerInstance: map[InstanceKey]*stats.Summary{},
		LatencySamples: []float64{},
	}
	return []*Results{odd, {}, empty}
}

// TestResultsCodecMatchesOracle encodes DES and hand-made results with both
// codecs and requires the same bytes, then decodes those bytes with both
// and requires the same value.
func TestResultsCodecMatchesOracle(t *testing.T) {
	all := append(desResults(t), handMadeResults()...)
	for i, res := range all {
		got := encodeResults(t, res)
		want := oracleEncode(t, res)
		if !bytes.Equal(got, want) {
			t.Fatalf("results %d: encoding differs from encoding/json (len %d vs %d)", i, len(got), len(want))
		}
		back, err := ReadResultsJSON(bytes.NewReader(got))
		if err != nil {
			t.Fatalf("results %d: %v", i, err)
		}
		oracleBack, _, err := oracleRead(got)
		if err != nil {
			t.Fatalf("results %d: oracle: %v", i, err)
		}
		if !reflect.DeepEqual(back, oracleBack) {
			t.Fatalf("results %d: decoded value differs from encoding/json's", i)
		}
		if compact, err := wirejson.Marshal(res.AppendWire); err != nil {
			t.Fatalf("results %d: %v", i, err)
		} else if oracleCompact, _ := json.Marshal(toResultsOracle(res)); !bytes.Equal(compact, oracleCompact) {
			t.Fatalf("results %d: compact encoding differs from encoding/json", i)
		}
	}
}

// TestReadResultsJSONRejectsNullSummary: a null per-request summary would
// decode to a nil *stats.Summary that callers dereference.
func TestReadResultsJSONRejectsNullSummary(t *testing.T) {
	doc := `{"agenda": "heap", "perRequest": {"r0": {"n": 1}, "r1": null}}`
	if _, err := ReadResultsJSON(strings.NewReader(doc)); err == nil || !strings.Contains(err.Error(), `null summary for request "r1"`) {
		t.Errorf("null per-request summary: got %v", err)
	}
}

// TestReadResultsJSONRejectsRepeatedRows: a second row for one instance
// in any instance table is an error, not a silent overwrite.
func TestReadResultsJSONRejectsRepeatedRows(t *testing.T) {
	for _, table := range []struct{ key, row string }{
		{"droppedByInstance", `"count": 1`},
		{"failureDropsByInstance", `"count": 1`},
		{"utilization", `"value": 0.5`},
		{"meanJobs", `"value": 0.5`},
		{"perInstance", `"summary": {"n": 1}`},
	} {
		row := `{"vnf": "fw", "instance": 1, ` + table.row + `}`
		other := `{"vnf": "fw", "instance": 0, ` + table.row + `}`
		ok := `{"agenda": "heap", "` + table.key + `": [` + row + `, ` + other + `]}`
		if _, err := ReadResultsJSON(strings.NewReader(ok)); err != nil {
			t.Errorf("%s: distinct rows rejected: %v", table.key, err)
		}
		doc := `{"agenda": "heap", "` + table.key + `": [` + row + `, ` + other + `, ` + row + `]}`
		if _, err := ReadResultsJSON(strings.NewReader(doc)); !errors.Is(err, wirejson.ErrDuplicateKey) {
			t.Errorf("%s: repeated row: got %v, want ErrDuplicateKey", table.key, err)
		}
	}
}

// TestReadResultsJSONSampleHint: a latency count far above the samples
// present must not size the sample slice beyond the input.
func TestReadResultsJSONSampleHint(t *testing.T) {
	doc := `{"agenda": "heap", "latency": {"n": 9223372036854775807}, "latencySamples": [1, 2]}`
	res, err := ReadResultsJSON(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.LatencySamples) != 2 || cap(res.LatencySamples) > len(doc) {
		t.Errorf("samples %v, cap %d", res.LatencySamples, cap(res.LatencySamples))
	}
}

func FuzzReadResultsJSON(f *testing.F) {
	// The seeds are small documents with every table filled: a DES-sized
	// one (kilobytes of samples) makes minimizing each new input slow.
	small := handMadeResults()[0]
	smallDoc, err := json.Marshal(toResultsOracle(small))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(smallDoc)
	var indented bytes.Buffer
	if err := small.WriteJSON(&indented); err != nil {
		f.Fatal(err)
	}
	f.Add(indented.Bytes())
	variants, err := wirejsontest.NullVariants(smallDoc)
	if err != nil {
		f.Fatal(err)
	}
	for _, v := range variants {
		f.Add(v)
	}
	s := string(smallDoc)
	for _, seed := range []string{
		strings.Replace(s, `"agenda":"heap"`, `"agenda":"ladder"`, 1),
		strings.Replace(s, `"agenda":"heap"`, `"AGENDA":"auto"`, 1),
		strings.Replace(s, `"agenda":"heap"`, `"agenda":"calendar"`, 1),
		strings.Replace(s, `"generated":3`, `"generated":3.0`, 1),
		strings.Replace(s, `"generated":3`, `"generated":-0`, 1),
		strings.Replace(s, `"shed":7`, `"shed":1e2`, 1),
		strings.Replace(s, `"latencySamples":[`, `"latencySamples":[],"x":[`, 1),
		strings.Replace(s, `"latencySamples":[`, `"latencySamples":[1e400,`, 1),
		strings.Replace(s, `"n":3`, `"n":-3`, 1),
		strings.Replace(s, `"n":3`, `"N":3,"n":3`, 1),
		strings.Replace(s, `"downtime":{`, `"downtime":{"n&3":1,`, 1),
		strings.Replace(s, `"perRequest":{`, `"perRequest":{"r0":null,`, 1),
		strings.Replace(s, `"perInstance":[`, `"perInstance":[{"vnf":"fw","instance":2},`, 1),
		strings.Replace(s, `"perInstance":[`, `"perInstance":[null,null,`, 1),
		strings.Replace(s, `"droppedByInstance":[`, `"droppedByInstance":[{"vnf":"a\u0026b","instance":3,"count":1},`, 1),
		strings.Replace(s, `"vnf"`, `"VNF"`, 1),
		strings.Replace(s, `"instance"`, "\"in\u017ftance\"", 1),
		s + " trailing", s[:len(s)/2], `{"agenda":"heap"}`, `null`, ``, `[]`, `{"agenda":"heap","bogus":1}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := ReadResultsJSON(bytes.NewReader(data))
		want, wire, wantErr := oracleRead(data)
		if gotErr != nil && wantErr == nil && deliberatelyRejected(wire) {
			return
		}
		if !wirejsontest.CompareDecode(t, data, got, gotErr, want, wantErr, resultsMaps) {
			return
		}
		// Whatever the decoder accepts, the writer re-encodes exactly as
		// encoding/json does.
		if enc, wantEnc := encodeResults(t, got), oracleEncode(t, want); !bytes.Equal(enc, wantEnc) {
			t.Fatalf("re-encoding %q:\n got %s\nwant %s", data, enc, wantEnc)
		}
	})
}
