package stats

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"nfvchain/internal/wirejson"
)

// TestSummaryJSONRoundTrip asserts the Welford state survives a round trip
// exactly — merged and re-encoded summaries behave bit-for-bit like the
// originals.
func TestSummaryJSONRoundTrip(t *testing.T) {
	var s Summary
	for _, x := range []float64{0.25, 1.5, -3.75, 42, 0.1} {
		s.Add(x)
	}
	data, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("round trip drifted: %v vs %v", &back, &s)
	}
	if back.Variance() != s.Variance() || back.CI95() != s.CI95() {
		t.Errorf("derived moments drifted after round trip")
	}
	again, err := json.Marshal(&back)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Errorf("re-encoding unstable: %s vs %s", again, data)
	}
}

// TestSummaryJSONZero round-trips the zero value.
func TestSummaryJSONZero(t *testing.T) {
	var s Summary
	data, err := json.Marshal(&s)
	if err != nil {
		t.Fatal(err)
	}
	var back Summary
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != s {
		t.Errorf("zero round trip drifted: %v vs %v", &back, &s)
	}
}

// TestSummaryJSONStrict rejects unknown fields and negative counts.
func TestSummaryJSONStrict(t *testing.T) {
	var s Summary
	if err := json.Unmarshal([]byte(`{"n":1,"mean":2,"m2":0,"min":2,"max":2,"bogus":1}`), &s); err == nil {
		t.Error("unknown field accepted")
	}
	if err := json.Unmarshal([]byte(`{"n":-4,"mean":0,"m2":0,"min":0,"max":0}`), &s); err == nil {
		t.Error("negative n accepted")
	}
}

// summaryOracle is the Summary wire form as it was declared for
// encoding/json: the oracle the hand-written codec must match.
type summaryOracle struct {
	N    int     `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

func toSummaryOracle(s *Summary) summaryOracle {
	return summaryOracle{N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max}
}

// TestSummaryJSONMatchesOracle encodes summaries with both codecs, compact
// and as indented members, and decodes hand-made documents with both.
func TestSummaryJSONMatchesOracle(t *testing.T) {
	sums := []Summary{{}, {n: 1, mean: 1e-7, m2: 0, min: 1e-7, max: 1e-7},
		{n: 3, mean: 1e21, m2: 5e-324, min: -1e21, max: math.MaxFloat64},
		{n: math.MaxInt, mean: -0.1, m2: 123456789.125, min: math.Copysign(0, -1), max: 9.99999e-7}}
	var grown Summary
	for _, x := range []float64{0.25, 1.5, -3.75, 42, 0.1} {
		grown.Add(x)
		sums = append(sums, grown)
	}
	for _, s := range sums {
		got, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(toSummaryOracle(&s))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("compact:\n got %s\nwant %s", got, want)
		}
		got, err = json.MarshalIndent(map[string]any{"s": s}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want, err = json.MarshalIndent(map[string]any{"s": toSummaryOracle(&s)}, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("indented:\n got %s\nwant %s", got, want)
		}
	}
	docs := []string{
		`{"n":2,"mean":1.5,"m2":0.5,"min":1,"max":2}`, `{"N":2,"MEAN":1.5}`, `{}`, `null`,
		`{"n":null,"mean":null}`, `{"n":1.0}`, `{"n":-1}`, `{"n":1,"bogus":2}`, `{"mean":"1"}`,
		`{"max":1e400}`, `[]`, `{"n":1}x`,
	}
	for _, doc := range docs {
		var want summaryOracle
		dec := json.NewDecoder(strings.NewReader(doc))
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&want)
		if wantErr == nil && dec.More() {
			wantErr = errors.New("trailing data")
		}
		if wantErr == nil && want.N < 0 {
			wantErr = errors.New("negative n")
		}
		var got Summary
		gotErr := json.Unmarshal([]byte(doc), &got)
		if (gotErr == nil) != (wantErr == nil) || wantErr == nil && toSummaryOracle(&got) != want {
			t.Errorf("%s: got (%+v, %v), want (%+v, %v)", doc, toSummaryOracle(&got), gotErr, want, wantErr)
		}
	}
	var s Summary
	if err := json.Unmarshal([]byte(`{"n":1,"N":2}`), &s); !errors.Is(err, wirejson.ErrDuplicateKey) {
		t.Errorf("repeated field: got %v, want ErrDuplicateKey", err)
	}
}
