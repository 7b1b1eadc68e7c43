package workload

import (
	"bytes"
	"strings"
	"testing"
)

// TestTraceStreamRoundTrip writes a generated trace as CSV and re-reads it
// through the streaming cursor row for row.
func TestTraceStreamRoundTrip(t *testing.T) {
	p := sourceProblem(t, 30)
	tr, err := GenerateTrace(p, 5, InterArrivalExponential, 21)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	ts, err := NewTraceStream(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i, a := range tr.Arrivals {
		tm, id, ok := ts.NextArrival()
		if !ok {
			t.Fatalf("stream ended at row %d of %d (err %v)", i, len(tr.Arrivals), ts.Err())
		}
		if tm != a.Time || id != a.Request {
			t.Fatalf("row %d: streamed (%v, %s) != written (%v, %s)", i, tm, id, a.Time, a.Request)
		}
	}
	if _, _, ok := ts.NextArrival(); ok {
		t.Fatal("stream has rows beyond the written trace")
	}
	if err := ts.Err(); err != nil {
		t.Fatalf("clean EOF reported error %v", err)
	}
}

// TestTraceStreamErrors covers header and row validation; after the first bad
// row the cursor must stay stopped with a sticky error.
func TestTraceStreamErrors(t *testing.T) {
	headerErr := map[string]string{
		"empty":       "",
		"bad header":  "when,who\n1,r\n",
		"wide header": "time,request,extra\n",
	}
	for name, in := range headerErr {
		if _, err := NewTraceStream(strings.NewReader(in)); err == nil {
			t.Errorf("%s: bad header accepted", name)
		}
	}

	rowErr := map[string]string{
		"bad time":        "time,request\nabc,r\n",
		"nan time":        "time,request\nNaN,r\n",
		"negative time":   "time,request\n-1,r\n",
		"decreasing time": "time,request\n2,r\n1,r\n",
		"wide row":        "time,request\n1,r,x\n",
	}
	for name, in := range rowErr {
		t.Run(name, func(t *testing.T) {
			ts, err := NewTraceStream(strings.NewReader(in))
			if err != nil {
				t.Fatal(err)
			}
			for {
				if _, _, ok := ts.NextArrival(); !ok {
					break
				}
			}
			if ts.Err() == nil {
				t.Fatal("malformed row accepted")
			}
			if _, _, ok := ts.NextArrival(); ok {
				t.Fatal("cursor advanced past a sticky error")
			}
		})
	}
}

// TestTraceStreamInternsIDs asserts repeated request IDs resolve to the same
// interned string value, the property that keeps long replays at
// O(#requests) long-lived memory.
func TestTraceStreamInternsIDs(t *testing.T) {
	ts, err := NewTraceStream(strings.NewReader("time,request\n1,alpha\n2,alpha\n3,beta\n"))
	if err != nil {
		t.Fatal(err)
	}
	_, a1, _ := ts.NextArrival()
	_, a2, _ := ts.NextArrival()
	_, b, _ := ts.NextArrival()
	if a1 != "alpha" || a2 != "alpha" || b != "beta" {
		t.Fatalf("parsed IDs %q %q %q", a1, a2, b)
	}
	if len(ts.ids) != 2 {
		t.Errorf("intern table holds %d entries, want 2", len(ts.ids))
	}
}

// TestAnalyzeArrivalsMatchesAnalyzeTrace pins the streaming analyzer to the
// materializing one on traces small enough that the reservoir holds every
// gap: all statistics, including KS, must agree exactly.
func TestAnalyzeArrivalsMatchesAnalyzeTrace(t *testing.T) {
	p := sourceProblem(t, 30)
	tr, err := GenerateTrace(p, 10, InterArrivalLogNormal, 21)
	if err != nil {
		t.Fatal(err)
	}
	want := AnalyzeTrace(tr)
	got, err := AnalyzeArrivals(tr.Cursor(), tr.Horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("streaming analyzer reported %d flows, materializing %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("flow %s: streaming %+v != materializing %+v", want[i].Request, got[i], want[i])
		}
	}
}

// TestAnalyzeArrivalsBoundsInfiniteCursor pins the horizon-bounded pull: a
// MergedStream over renewal sources never ends, so a positive horizon must
// stop the analysis (and leave arrivals past it unconsumed) rather than
// drain forever.
func TestAnalyzeArrivalsBoundsInfiniteCursor(t *testing.T) {
	p := sourceProblem(t, 20)
	srcs, err := TraceSources(p, InterArrivalExponential, 13)
	if err != nil {
		t.Fatal(err)
	}
	const horizon = 3.0
	sts, err := AnalyzeArrivals(NewMergedStream(srcs), horizon)
	if err != nil {
		t.Fatal(err)
	}
	if len(sts) == 0 {
		t.Fatal("bounded analysis of a live generator cursor saw no flows")
	}
	total := 0
	for _, st := range sts {
		total += st.Count
	}
	tr, err := GenerateTrace(p, horizon, InterArrivalExponential, 13)
	if err != nil {
		t.Fatal(err)
	}
	if total != len(tr.Arrivals) {
		t.Errorf("bounded streaming analysis counted %d arrivals, materialized trace has %d",
			total, len(tr.Arrivals))
	}
}

// TestAnalyzeTraceCSVStreams checks the CSV convenience wrapper end to end,
// including error propagation from a malformed row.
func TestAnalyzeTraceCSVStreams(t *testing.T) {
	p := sourceProblem(t, 20)
	tr, err := GenerateTrace(p, 5, InterArrivalExponential, 21)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	sts, err := AnalyzeTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, st := range sts {
		total += st.Count
	}
	if total != len(tr.Arrivals) {
		t.Errorf("streamed analysis counted %d arrivals, trace has %d", total, len(tr.Arrivals))
	}
	if _, err := AnalyzeTraceCSV(strings.NewReader("time,request\n2,r\n1,r\n")); err == nil {
		t.Error("out-of-order CSV analyzed without error")
	}
}
