package stats

import (
	"fmt"

	"nfvchain/internal/wirejson"
)

// The wire form of a Summary is its Welford state, {"n", "mean", "m2",
// "min", "max"}, carried verbatim so a round trip is exact: Merge, Variance
// and CI95 on a decoded Summary behave bit-for-bit like on the original.

var summaryFields = wirejson.NewFields("n", "mean", "m2", "min", "max")

// MarshalJSON encodes the summary's Welford state.
func (s Summary) MarshalJSON() ([]byte, error) { return wirejson.Marshal(s.AppendWire) }

// UnmarshalJSON decodes a summary written by MarshalJSON. Unknown and
// repeated fields are rejected so wire-format drift fails loudly instead of
// silently zeroing moments.
func (s *Summary) UnmarshalJSON(data []byte) error {
	if err := wirejson.Unmarshal(data, s.DecodeWire); err != nil {
		return fmt.Errorf("stats: decode summary: %w", err)
	}
	return nil
}

// AppendWire writes the summary as a JSON object.
func (s *Summary) AppendWire(w *wirejson.Writer) {
	w.BeginObject()
	w.Key("n")
	w.Int(s.n)
	w.Key("mean")
	w.Float(s.mean)
	w.Key("m2")
	w.Float(s.m2)
	w.Key("min")
	w.Float(s.min)
	w.Key("max")
	w.Float(s.max)
	w.EndObject()
}

// DecodeWire reads a summary object into s; null leaves s unchanged. A
// negative count is an error.
func (s *Summary) DecodeWire(r *wirejson.Reader) {
	var seen uint64
	r.Object(func(key []byte) {
		switch r.Field(summaryFields, key, &seen) {
		case 0:
			if s.n = r.Int(); s.n < 0 {
				r.Fail(fmt.Errorf("negative n %d", s.n))
			}
		case 1:
			s.mean = r.Float()
		case 2:
			s.m2 = r.Float()
		case 3:
			s.min = r.Float()
		case 4:
			s.max = r.Float()
		}
	})
}
