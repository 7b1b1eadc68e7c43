package core

import (
	"fmt"
	"io"

	"nfvchain/internal/model"
	"nfvchain/internal/wirejson"
)

// The stable on-disk form of a Solution is one JSON object with the members
// below, in this order. The problem itself is stored alongside so a solution
// file is self-contained; "rejected" is omitted when empty.
var solutionFields = wirejson.NewFields("problem", "placement", "placementIterations",
	"schedule", "rejected", "rejectionRate", "linkDelay")

// WriteJSON serializes the solution (with its problem) as indented JSON,
// byte for byte what encoding/json's indented Encoder writes for it.
func (s *Solution) WriteJSON(w io.Writer) error {
	if err := wirejson.Encode(w, s.appendWire); err != nil {
		return fmt.Errorf("core: encode solution: %w", err)
	}
	return nil
}

func (s *Solution) appendWire(w *wirejson.Writer) {
	w.BeginObject()
	w.Key("problem")
	if s.Problem == nil {
		w.Null()
	} else {
		s.Problem.AppendWire(w)
	}
	w.Key("placement")
	if s.Placement == nil {
		w.Null()
	} else {
		s.Placement.AppendWire(w)
	}
	w.Key("placementIterations")
	w.Int(s.PlacementIterations)
	w.Key("schedule")
	if s.Schedule == nil {
		w.Null()
	} else {
		s.Schedule.AppendWire(w)
	}
	if len(s.Rejected) > 0 {
		w.Key("rejected")
		w.BeginArray()
		for _, r := range s.Rejected {
			w.String(string(r))
		}
		w.EndArray()
	}
	w.Key("rejectionRate")
	w.Float(s.RejectionRate)
	w.Key("linkDelay")
	w.Float(s.LinkDelay)
	w.EndObject()
}

// ReadSolutionJSON parses a solution written by WriteJSON and validates its
// internal consistency (problem validity, placement feasibility, schedule
// completeness modulo rejections). Decoding is strict: an unknown or
// repeated field is an error. As with a json.Decoder, only the first JSON
// value is read; anything after it is ignored.
func ReadSolutionJSON(r io.Reader) (*Solution, error) {
	var sol Solution
	if err := wirejson.Decode(r, sol.decodeWire); err != nil {
		return nil, fmt.Errorf("core: decode solution: %w", err)
	}
	if sol.Problem == nil || sol.Placement == nil || sol.Schedule == nil {
		return nil, fmt.Errorf("core: solution file missing problem, placement or schedule")
	}
	// decodeWire indexed a valid problem read before the schedule.
	if sol.Schedule.Index() == nil {
		if err := sol.Problem.Validate(); err != nil {
			return nil, fmt.Errorf("core: solution problem: %w", err)
		}
	}
	if err := sol.Placement.Validate(sol.Problem); err != nil {
		return nil, fmt.Errorf("core: solution placement: %w", err)
	}
	sol.Schedule = sol.Schedule.For(sol.Problem)
	if err := sol.Schedule.ValidatePartial(sol.Problem); err != nil {
		return nil, fmt.Errorf("core: solution schedule: %w", err)
	}
	return &sol, nil
}

// decodeWire reads the solution envelope into s.
func (s *Solution) decodeWire(r *wirejson.Reader) {
	var seen uint64
	r.Object(func(key []byte) {
		switch r.Field(solutionFields, key, &seen) {
		case 0:
			if !r.Null() {
				s.Problem = new(model.Problem)
				s.Problem.DecodeWire(r)
			}
		case 1:
			if !r.Null() {
				s.Placement = new(model.Placement)
				s.Placement.DecodeWire(r)
			}
		case 2:
			s.PlacementIterations = r.Int()
		case 3:
			// Rows go straight into the slots of the problem's index when
			// the problem came first, as WriteJSON writes it, and is
			// valid; ReadSolutionJSON handles the other cases.
			if !r.Null() {
				var ix *model.Index
				if s.Problem != nil {
					ix, _ = model.CompileValid(s.Problem)
				}
				s.Schedule = model.NewSchedule(ix)
				s.Schedule.DecodeWire(r)
			}
		case 4:
			s.Rejected = wirejson.Slice(r, func(id *model.RequestID) { *id = model.RequestID(r.Str()) })
		case 5:
			s.RejectionRate = r.Float()
		case 6:
			s.LinkDelay = r.Float()
		}
	})
}
