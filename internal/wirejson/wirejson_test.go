package wirejson

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
)

// writeAny writes a value of the shapes encoding/json decodes into any
// (nil, string, float64, []any, map[string]any) through the Writer.
func writeAny(w *Writer, v any) {
	switch v := v.(type) {
	case nil:
		w.Null()
	case string:
		w.String(v)
	case float64:
		w.Float(v)
	case int:
		w.Int(v)
	case uint64:
		w.Uint64(v)
	case bool:
		w.Bool(v)
	case json.RawMessage:
		w.Raw(v)
	case []any:
		w.BeginArray()
		for _, e := range v {
			writeAny(w, e)
		}
		w.EndArray()
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		w.BeginObject()
		for _, k := range keys {
			w.Key(k)
			writeAny(w, v[k])
		}
		w.EndObject()
	default:
		panic(fmt.Sprintf("writeAny: %T", v))
	}
}

// oracle returns encoding/json's compact and indented encodings of v.
func oracle(t *testing.T, v any) (compact, indented []byte) {
	t.Helper()
	compact, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return compact, buf.Bytes()
}

// checkWriter compares both Writer modes with encoding/json on v.
func checkWriter(t *testing.T, v any) {
	t.Helper()
	compact, indented := oracle(t, v)
	got, err := Marshal(func(w *Writer) { writeAny(w, v) })
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, compact) {
		t.Errorf("compact %#v:\n got %s\nwant %s", v, got, compact)
	}
	var buf bytes.Buffer
	if err := Encode(&buf, func(w *Writer) { writeAny(w, v) }); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), indented) {
		t.Errorf("indented %#v:\n got %q\nwant %q", v, buf.Bytes(), indented)
	}
}

var trickyStrings = []string{
	"", "plain", "<script>&amp;</script>", `quote " and backslash \`,
	"\x00\x01\b\f\n\r\t\x1f\x7f", "line\u2028para\u2029end", "bad \xff utf8 \xe2\x80",
	"\xed\xa0\x80 raw surrogate", "sécurité ✓ 🙂", "\ufffd literal replacement",
}

func TestWriterStrings(t *testing.T) {
	for _, s := range trickyStrings {
		checkWriter(t, s)
		checkWriter(t, map[string]any{s: s})
	}
	for c := 0; c < 256; c++ {
		checkWriter(t, string([]byte{'a', byte(c), 'z'}))
	}
}

func TestWriterFloats(t *testing.T) {
	vals := []float64{0, math.Copysign(0, -1), 1, -1, 0.1, 1e-6, 1e-7, 9.99999e-7, 1e20, 1e21,
		-1e21, 123456789.125, 5e-324, math.MaxFloat64, -math.SmallestNonzeroFloat64, 1e-300}
	rng := rand.New(rand.NewPCG(1, 2))
	for len(vals) < 2000 {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			vals = append(vals, f)
		}
	}
	for _, f := range vals {
		checkWriter(t, f)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := Marshal(func(w *Writer) { w.Float(bad) }); err == nil {
			t.Errorf("Float(%v) encoded", bad)
		}
	}
}

func TestWriterNesting(t *testing.T) {
	checkWriter(t, []any{})
	checkWriter(t, map[string]any{})
	checkWriter(t, []any{nil, []any{}, map[string]any{}, map[string]any{"a": []any{}}})
	checkWriter(t, map[string]any{"b": 1.5, "a": []any{"x", nil, 2.0}, "c": map[string]any{"d": nil}})
	// Deeper than the writer's one-append indentation run.
	var deep any = "leaf"
	for i := 0; i < 40; i++ {
		deep = []any{float64(i), map[string]any{"k": deep}}
	}
	checkWriter(t, deep)
}

func TestReaderStrings(t *testing.T) {
	lits := []string{
		`""`, `"plain"`, `"\"\\\/\b\f\n\r\t"`, `"\u0041\u00e9\u2028"`, `"\ud83d\ude00"`,
		`"\ud83d"`, `"\ude00"`, `"\ud83d\ud83d\ude00"`, `"\ud83dx"`, `"\ud83d\u0041"`,
		`"\ud83d\n"`, "\"bad \xff utf8\"", "\"raw \xed\xa0\x80\"", "\"\u2028 raw\"",
		`"\x"`, `"\u12"`, `"\u12g4"`, "\"ctl \x01\"", `"unterminated`, `"\`, `"a\"`,
		"\"tab\there\"", `"\uD83D\uDE00"`, `null`, `1`, `{}`, `"x" "y"`,
	}
	for _, lit := range lits {
		var want string
		wantErr := json.Unmarshal([]byte(lit), &want)
		var got string
		gotErr := Unmarshal([]byte(lit), func(r *Reader) { got = r.Str() })
		if (gotErr == nil) != (wantErr == nil) || wantErr == nil && got != want {
			t.Errorf("%q: got (%q, %v), want (%q, %v)", lit, got, gotErr, want, wantErr)
		}
	}
}

func TestReaderNumbers(t *testing.T) {
	lits := []string{
		"0", "-0", "7", "-12", "1.0", "1e2", "1E+2", "2.5e-3", "-", "01", "1.", ".5", "+1",
		"0x10", "1_000", "Infinity", "NaN", "null", "nul", "99999999999999999999",
		"9223372036854775807", "-9223372036854775808", "1e400", "-1e400", "1e-400",
		"5e-324", "0.1", " 3 ", "3 4", "1e", "1e+", "-01", `"1"`, "true",
	}
	for _, lit := range lits {
		var wantI int
		wantIErr := json.Unmarshal([]byte(lit), &wantI)
		var gotI int
		gotIErr := Unmarshal([]byte(lit), func(r *Reader) { gotI = r.Int() })
		if (gotIErr == nil) != (wantIErr == nil) || wantIErr == nil && gotI != wantI {
			t.Errorf("int %q: got (%d, %v), want (%d, %v)", lit, gotI, gotIErr, wantI, wantIErr)
		}
		var wantF float64
		wantFErr := json.Unmarshal([]byte(lit), &wantF)
		var gotF float64
		gotFErr := Unmarshal([]byte(lit), func(r *Reader) { gotF = r.Float() })
		if (gotFErr == nil) != (wantFErr == nil) || wantFErr == nil && math.Float64bits(gotF) != math.Float64bits(wantF) {
			t.Errorf("float %q: got (%v, %v), want (%v, %v)", lit, gotF, gotFErr, wantF, wantFErr)
		}
	}
}

// TestReaderFields checks key matching against encoding/json on a struct
// with the same names: exact first, then case folding (including the
// Kelvin sign and the long s), with unknown fields rejected.
func TestReaderFields(t *testing.T) {
	type target struct {
		Name      string  `json:"name"`
		Kind      string  `json:"kind"`
		LinkDelay float64 `json:"linkDelay"`
	}
	fields := NewFields("name", "kind", "linkDelay")
	docs := []string{
		`{"name":"a","kind":"b","linkDelay":1}`,
		`{"NAME":"a","Kind":"b","LINKDELAY":1}`,
		`{"\u006eame":"a"}`,
		"{\"\u212aind\":\"kelvin\"}",
		"{\"name\u017f\":\"long s\"}",
		"{\"linkdelay\":2,\"ſ\":1}",
		`{"bogus":1}`,
		`{"name":"a",}`,
		`{"name" "a"}`,
		`{"name":"a"} trailing`,
		`{"name":null,"kind":null,"linkDelay":null}`,
		`null`,
		`[]`,
	}
	for _, doc := range docs {
		var want target
		dec := json.NewDecoder(strings.NewReader(doc))
		dec.DisallowUnknownFields()
		wantErr := dec.Decode(&want)
		if wantErr == nil && dec.More() {
			wantErr = errors.New("trailing data")
		}
		var got target
		gotErr := Unmarshal([]byte(doc), func(r *Reader) {
			var seen uint64
			r.Object(func(key []byte) {
				switch r.Field(fields, key, &seen) {
				case 0:
					got.Name = r.Str()
				case 1:
					got.Kind = r.Str()
				case 2:
					got.LinkDelay = r.Float()
				}
			})
		})
		if (gotErr == nil) != (wantErr == nil) || wantErr == nil && got != want {
			t.Errorf("%s: got (%+v, %v), want (%+v, %v)", doc, got, gotErr, want, wantErr)
		}
	}
	err := Unmarshal([]byte(`{"name":"a","NAME":"b"}`), func(r *Reader) {
		var seen uint64
		r.Object(func(key []byte) {
			if r.Field(fields, key, &seen) >= 0 {
				_ = r.Str()
			}
		})
	})
	if !errors.Is(err, ErrDuplicateKey) {
		t.Errorf("repeated field: got %v, want ErrDuplicateKey", err)
	}
}

// TestDecodeIgnoresTrailingData pins the json.Decoder behaviour Decode
// keeps: bytes after the first complete value are not examined.
func TestDecodeIgnoresTrailingData(t *testing.T) {
	var got []float64
	err := Decode(strings.NewReader(`[1, 2] garbage {`), func(r *Reader) {
		got = Slice(r, func(x *float64) { *x = r.Float() })
	})
	if err != nil || !slices.Equal(got, []float64{1, 2}) {
		t.Errorf("got (%v, %v)", got, err)
	}
	if err := Decode(strings.NewReader(" "), func(r *Reader) { r.Array(func() {}) }); err == nil {
		t.Error("empty input accepted")
	}
}

func TestWriterScalars(t *testing.T) {
	for _, v := range []any{true, false, uint64(0), uint64(7), uint64(math.MaxUint64),
		map[string]any{"t": true, "u": uint64(1 << 63), "f": false}} {
		checkWriter(t, v)
	}
}

func TestReaderBoolUint64(t *testing.T) {
	lits := []string{
		"true", "false", "null", "tru", "truex", "t", "fals", "falsey", "nul", "True",
		"0", "1", "-1", "-0", "1.0", "1e2", "18446744073709551615", "18446744073709551616",
		"99999999999999999999", `"1"`, "[]", "{}", "", " true ", "true false",
	}
	for _, lit := range lits {
		var wantB bool
		wantBErr := json.Unmarshal([]byte(lit), &wantB)
		var gotB bool
		gotBErr := Unmarshal([]byte(lit), func(r *Reader) { gotB = r.Bool() })
		if (gotBErr == nil) != (wantBErr == nil) || wantBErr == nil && gotB != wantB {
			t.Errorf("bool %q: got (%v, %v), want (%v, %v)", lit, gotB, gotBErr, wantB, wantBErr)
		}
		var wantU uint64
		wantUErr := json.Unmarshal([]byte(lit), &wantU)
		var gotU uint64
		gotUErr := Unmarshal([]byte(lit), func(r *Reader) { gotU = r.Uint64() })
		if (gotUErr == nil) != (wantUErr == nil) || wantUErr == nil && gotU != wantU {
			t.Errorf("uint64 %q: got (%d, %v), want (%d, %v)", lit, gotU, gotUErr, wantU, wantUErr)
		}
	}
}

// rawValues are JSON values, valid and not, for the raw capture and the
// compacting raw write.
var rawValues = []string{
	`null`, `true`, `false`, `0`, `-1.5e+3`, `""`, `"plain"`, `[]`, `{}`, `[ ]`, `{ }`,
	`{"a": [1, 2, {"b": null}], "c": {"d": "e"}}`,
	"[\n  1,\n  [true, false],\n  {\"k\" :\t\"v\"}\r\n]",
	`"<script>&amp;</script>"`, "\"line\u2028para\u2029end \xe2\x80\xa8\"", `"\u2028 \u003c \"q\" \\"`,
	"\"bad \xff utf8 \xe2\x80\"", `{"<k>": "&"}`, `[{}, [], [[]], {"a": {}}]`,
	`[1,]`, `{"a" 1}`, `{"a":1,}`, `{,}`, `[1 2]`, `nul`, `tru`, `-`, `01`, `1.`, `"\x"`,
	"\"ctl \x01\"", `"unterminated`, `[`, `{"a":`, `}`, ``, `{"a":1}}`, `[1]]`, `"a" "b"`,
}

// TestReaderRaw compares Raw with encoding/json's json.RawMessage capture,
// on its own and as a member value (where the capture excludes the
// surrounding whitespace).
func TestReaderRaw(t *testing.T) {
	for _, v := range rawValues {
		for _, doc := range []string{v, `{"x": ` + v + ` , "y": 1}`} {
			var want struct {
				X json.RawMessage `json:"x"`
				Y int             `json:"y"`
			}
			var wantRaw json.RawMessage
			var wantErr error
			if doc == v {
				wantErr = json.Unmarshal([]byte(doc), &wantRaw)
			} else {
				wantErr = json.Unmarshal([]byte(doc), &want)
				wantRaw = want.X
			}
			var got []byte
			gotErr := Unmarshal([]byte(doc), func(r *Reader) {
				if doc == v {
					got = r.Raw()
					return
				}
				r.Object(func(key []byte) {
					if string(key) == "x" {
						got = r.Raw()
					} else {
						r.Int()
					}
				})
			})
			if (gotErr == nil) != (wantErr == nil) || wantErr == nil && !bytes.Equal(got, wantRaw) {
				t.Errorf("%q: got (%q, %v), want (%q, %v)", doc, got, gotErr, wantRaw, wantErr)
			}
		}
	}
}

// TestReaderDepth pins encoding/json's nesting limit for a raw value.
func TestReaderDepth(t *testing.T) {
	for _, depth := range []int{maxDepth, maxDepth + 1} {
		doc := []byte(strings.Repeat("[", depth) + strings.Repeat("]", depth))
		var want json.RawMessage
		wantErr := json.Unmarshal(doc, &want)
		gotErr := Unmarshal(doc, func(r *Reader) { r.Raw() })
		if (gotErr == nil) != (wantErr == nil) {
			t.Errorf("depth %d: got %v, want %v", depth, gotErr, wantErr)
		}
	}
}

// TestWriterRaw compares the raw write with encoding/json's encoding of a
// json.RawMessage, compact and indented, alone and nested.
func TestWriterRaw(t *testing.T) {
	for _, v := range rawValues {
		if !json.Valid([]byte(v)) {
			// Unspecified output, but no panic, in either mode.
			_, _ = Marshal(func(w *Writer) { w.Raw([]byte(v)) })
			_ = Encode(io.Discard, func(w *Writer) { w.Raw([]byte(v)) })
			continue
		}
		raw := json.RawMessage(v)
		checkWriter(t, raw)
		checkWriter(t, map[string]any{"a": raw, "b": []any{raw, raw}})
	}
}

// chunkSink records the size of every Write.
type chunkSink struct {
	bytes.Buffer
	sizes []int
}

func (c *chunkSink) Write(b []byte) (int, error) {
	c.sizes = append(c.sizes, len(b))
	return c.Buffer.Write(b)
}

// TestStreamMatchesMarshal streams documents of many chunks, made mostly of
// six-byte escapes (each < is written \u003c), behind paddings that move the
// chunk boundaries: Stream writes Marshal's bytes, in whole chunks but the
// last, and some boundary splits an escape.
func TestStreamMatchesMarshal(t *testing.T) {
	split := 0
	for _, pad := range []int{0, 1, 5, streamChunk - 3, 3*streamChunk + 2} {
		doc := func(w *Writer) {
			w.BeginObject()
			w.Key(strings.Repeat("k", pad))
			w.BeginArray()
			for i := 0; i < 40; i++ {
				w.String(strings.Repeat("<", 100+i) + "\u2028\n")
				w.Float(float64(i) / 7)
			}
			w.EndArray()
			w.EndObject()
		}
		want, err := Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		var got chunkSink
		if err := Stream(&got, doc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("pad %d: Stream wrote %d bytes unlike Marshal's %d", pad, got.Len(), len(want))
		}
		if n := len(got.sizes); n < 4 || slices.ContainsFunc(got.sizes[:n-1], func(c int) bool { return c != streamChunk }) {
			t.Fatalf("pad %d: chunk sizes %v", pad, got.sizes)
		}
		for b := streamChunk; b < len(want); b += streamChunk {
			if i := bytes.LastIndexByte(want[:b], '\\'); i >= 0 && b-i < 6 && want[i+1] == 'u' {
				split++
			}
		}
	}
	if split == 0 {
		t.Fatal("no chunk boundary splits an escape")
	}
	bad := func(w *Writer) {
		w.BeginArray()
		w.String(strings.Repeat("x", 2*streamChunk))
		w.Float(math.NaN())
		w.EndArray()
	}
	if err := Stream(io.Discard, bad); err == nil {
		t.Fatal("Stream encoded NaN")
	}
}

// TestSliceNCap checks that a size hint is capped by the input left.
func TestSliceNCap(t *testing.T) {
	var got []float64
	err := Unmarshal([]byte(`[1,2,3]`), func(r *Reader) {
		got = SliceN(r, 1<<40, func(x *float64) { *x = r.Float() })
	})
	if err != nil || !slices.Equal(got, []float64{1, 2, 3}) || cap(got) > 8 {
		t.Errorf("got (%v, cap %d, %v)", got, cap(got), err)
	}
}
