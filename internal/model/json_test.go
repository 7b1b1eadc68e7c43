package model

import (
	"bytes"
	"encoding/json"
	"slices"
	"strings"
	"testing"

	"nfvchain/internal/wirejson/wirejsontest"
)

// problemOracle has Problem's fields and tags but none of its methods, so
// encoding/json encodes and decodes it by reflection: the oracle the codec
// must match.
type problemOracle Problem

// oracleReadJSON is ReadJSON as it was built on encoding/json: a strict
// json.Decoder, then validation.
func oracleReadJSON(data []byte) (*Problem, error) {
	var p problemOracle
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return nil, err
	}
	if err := (*Problem)(&p).Validate(); err != nil {
		return nil, err
	}
	return (*Problem)(&p), nil
}

// oracleIndent is what a json.Encoder with SetIndent("", "  ") writes.
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

// problemsHaveNoMaps: every object in a problem document is a struct.
func problemsHaveNoMaps([]string) bool { return false }

func FuzzReadProblemJSON(f *testing.F) {
	var doc bytes.Buffer
	if err := testProblem().WriteJSON(&doc); err != nil {
		f.Fatal(err)
	}
	compact, err := json.Marshal((*problemOracle)(testProblem()))
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
		strings.Replace(s, `"nodes"`, `"NODES"`, 1),
		strings.Replace(s, `"deliveryProb"`, `"DeliveryPROB"`, 1),
		strings.Replace(s, `"serviceRate"`, "\"\u017fervice\u212Aate\"", 1),
		strings.Replace(s, `"capacity"`, `"\u0063apacity"`, 1),
		// Empty arrays decode to empty, not nil, slices.
		strings.Replace(s, `"capacity":100`, `"capacity":100,"extras":[]`, 1),
		`{"nodes":[{"id":"n","capacity":1}],"vnfs":[{"id":"f","instances":1,"demand":0,"serviceRate":1}],"requests":[]}`,
		// Trailing data after the first value is not examined.
		s + " garbage", s + "{", s + `{"nodes":1}`, s + "\x00",
		// Escapes in strings.
		strings.Replace(s, `"fw"`, `"f\u0077"`, -1),
		strings.Replace(s, `"Firewall"`, `"Fire\nwall \ud83d\ude00 \ud83d \u2028 <&>"`, 1),
		strings.Replace(s, `"NAT"`, "\"N\xffT\"", 1),
		// Numbers into int and float fields.
		strings.Replace(s, `"instances":2`, `"instances":2.0`, 1),
		strings.Replace(s, `"instances":2`, `"instances":1e2`, 1),
		strings.Replace(s, `"instances":2`, `"instances":-0`, 1),
		strings.Replace(s, `"instances":2`, `"instances":99999999999999999999`, 1),
		strings.Replace(s, `"capacity":100`, `"capacity":1e400`, 1),
		strings.Replace(s, `"capacity":100`, `"capacity":1E+2`, 1),
		strings.Replace(s, `"capacity":100`, `"capacity":-0`, 1),
		strings.Replace(s, `"rate":10`, `"rate":"10"`, 1),
		// The permitted difference: a repeated key, exact or case-folded.
		strings.Replace(s, `"id":"n1",`, `"id":"n1","id":"n9",`, 1),
		strings.Replace(s, `"id":"n1",`, `"id":"n1","ID":"n9",`, 1),
		strings.Replace(s, `{"nodes":`, `{"requests":[],"nodes":`, 1),
		// Unknown fields and malformed input.
		strings.Replace(s, `"id":"n1",`, `"id":"n1","bogus":1,`, 1),
		`{"nodes":[],"vnfs":[],"requests":[]}`, `null`, ``, `[]`, `{`, `{"nodes":[{"id":"n1","capacity":1}]`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, gotErr := ReadJSON(bytes.NewReader(data))
		want, wantErr := oracleReadJSON(data)
		if !wirejsontest.CompareDecode(t, data, got, gotErr, want, wantErr, problemsHaveNoMaps) {
			return
		}
		// Whatever the decoder accepts, the writer re-encodes exactly as
		// encoding/json does.
		var buf bytes.Buffer
		if err := got.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		if wantDoc := oracleIndent(t, (*problemOracle)(want)); !bytes.Equal(buf.Bytes(), wantDoc) {
			t.Fatalf("re-encoding %q:\n got %s\nwant %s", data, buf.Bytes(), wantDoc)
		}
	})
}

// TestDecodedChainsDoNotAlias: the decoder carves every chain from one
// block, so an append to one chain must copy rather than overwrite the
// next chain's first VNF. Null and empty chains keep their nil and
// non-nil empty forms.
func TestDecodedChainsDoNotAlias(t *testing.T) {
	var p Problem
	doc := `{"requests": [
		{"id": "a", "chain": ["fw", "nat"]},
		{"id": "b", "chain": []},
		{"id": "c", "chain": null},
		{"id": "d", "chain": ["ids", "fw", "lb"]},
		{"id": "e", "chain": ["nat"]}]}`
	if err := json.Unmarshal([]byte(doc), &p); err != nil {
		t.Fatal(err)
	}
	for i, q := range p.Requests {
		if cap(q.Chain) != len(q.Chain) {
			t.Errorf("request %s: chain cap %d > len %d", q.ID, cap(q.Chain), len(q.Chain))
		}
		p.Requests[i].Chain = append(q.Chain, "evil")
	}
	want := [][]VNFID{{"fw", "nat", "evil"}, {"evil"}, {"evil"}, {"ids", "fw", "lb", "evil"}, {"nat", "evil"}}
	for i, q := range p.Requests {
		if !slices.Equal(q.Chain, want[i]) {
			t.Errorf("request %s: chain %v after appends, want %v", q.ID, q.Chain, want[i])
		}
	}

	var fresh Problem
	if err := json.Unmarshal([]byte(doc), &fresh); err != nil {
		t.Fatal(err)
	}
	if b, c := fresh.Requests[1].Chain, fresh.Requests[2].Chain; b == nil || len(b) != 0 || c != nil {
		t.Errorf("empty chain %#v (want non-nil empty), null chain %#v (want nil)", b, c)
	}
}
