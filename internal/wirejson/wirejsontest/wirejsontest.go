// Package wirejsontest holds the differential-test helpers shared by the
// codecs built on wirejson: encoding/json is the oracle, and these helpers
// compare a codec's verdict and value with it and generate seed inputs.
package wirejsontest

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"nfvchain/internal/wirejson"
)

// CompareDecode fails t unless a codec's decode of data (got, gotErr) gives
// the oracle's verdict (want, wantErr) and, on acceptance, an equal value.
// The one tolerated difference is the codec's rejection of a repeated key,
// which encoding/json merges: it is excused only when the codec reports
// ErrDuplicateKey and data really repeats a key (see RepeatedKey). It
// reports whether both accepted.
func CompareDecode[T any](t testing.TB, data []byte, got T, gotErr error, want T, wantErr error, isMap func(path []string) bool) bool {
	t.Helper()
	switch {
	case gotErr != nil && wantErr != nil:
		return false
	case gotErr == nil && wantErr != nil:
		t.Fatalf("accepted %q, which encoding/json rejects: %v", data, wantErr)
	case gotErr != nil:
		if errors.Is(gotErr, wirejson.ErrDuplicateKey) && RepeatedKey(data, isMap) {
			return false
		}
		t.Fatalf("rejected %q, which encoding/json accepts: %v", data, gotErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %q differently:\n got %#v\nwant %#v", data, got, want)
	}
	return true
}

// RepeatedKey reports whether an object in the first JSON value of data
// repeats a key. isMap tells, from the keys leading to an object (array
// indexes omitted), whether it decodes into a map, where only identical
// keys collide; in a struct, keys equal under encoding/json's case folding
// (strings.EqualFold) name the same field.
func RepeatedKey(data []byte, isMap func(path []string) bool) bool {
	dup, _ := repeatedKey(json.NewDecoder(bytes.NewReader(data)), nil, isMap)
	return dup
}

func repeatedKey(dec *json.Decoder, path []string, isMap func([]string) bool) (bool, error) {
	tok, err := dec.Token()
	if err != nil {
		return false, err
	}
	switch tok {
	case json.Delim('['):
		for dec.More() {
			if dup, err := repeatedKey(dec, path, isMap); dup || err != nil {
				return dup, err
			}
		}
	case json.Delim('{'):
		exact := isMap(path)
		var keys []string
		for dec.More() {
			tok, err := dec.Token()
			if err != nil {
				return false, err
			}
			key, _ := tok.(string)
			for _, prev := range keys {
				if prev == key || !exact && strings.EqualFold(prev, key) {
					return true, nil
				}
			}
			keys = append(keys, key)
			if dup, err := repeatedKey(dec, append(path[:len(path):len(path)], key), isMap); dup || err != nil {
				return dup, err
			}
		}
	default:
		return false, nil
	}
	_, err = dec.Token()
	return false, err
}

// NullVariants returns copies of the JSON document doc with null in place
// of each value in turn: every member value, every array element, and the
// document itself. Map keys come out sorted; the variants are compact.
func NullVariants(doc []byte) ([][]byte, error) {
	var root any
	if err := json.Unmarshal(doc, &root); err != nil {
		return nil, err
	}
	var out [][]byte
	var visit func(v any, set func(any)) error
	visit = func(v any, set func(any)) error {
		set(nil)
		b, err := json.Marshal(root)
		if err != nil {
			return err
		}
		out = append(out, b)
		set(v)
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				if err := visit(e, func(x any) { v[k] = x }); err != nil {
					return err
				}
			}
		case []any:
			for i, e := range v {
				if err := visit(e, func(x any) { v[i] = x }); err != nil {
					return err
				}
			}
		}
		return nil
	}
	err := visit(root, func(x any) { root = x })
	return out, err
}
