package simulate

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/scheduling"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

// tinyProblem builds a small fixed instance: two nodes, two VNFs, three
// chained requests, sized so a BufferSize-1 run produces drops (populating
// the per-instance maps) without generating an unwieldy sample set.
func tinyProblem(t *testing.T) (*model.Problem, *model.Schedule, *model.Placement) {
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
func tinyResults(t *testing.T) *Results {
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
func encodeResults(t *testing.T, res *Results) []byte {
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
