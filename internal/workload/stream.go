package workload

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"

	"nfvchain/internal/model"
)

// ArrivalCursor is a forward-only cursor over time-ordered external
// arrivals: NextArrival returns consecutive (time, request) rows in
// non-decreasing time order, and ok=false ends the cursor, after which Err
// reports whether it ended cleanly or on a malformed row. It is the one
// arrival input of simulate.Config.Arrivals and of AnalyzeArrivals;
// TraceStream (a CSV), MergedStream (live generator sources) and
// Trace.Cursor (an in-memory trace) implement it.
type ArrivalCursor interface {
	NextArrival() (t float64, id model.RequestID, ok bool)
	Err() error
}

// TraceStream is a forward-only cursor over a trace CSV ("time,request"
// rows, as written by Trace.WriteCSV or cmd/tracegen): it parses one row per
// NextArrival call instead of materializing the file, so replaying a
// 10M-arrival trace holds O(#distinct requests) long-lived memory (request
// IDs are interned; the csv reader's row buffer is reused). Rows must be in
// non-decreasing time order — the order WriteCSV emits — and replay order is
// file order. Handed to simulate.Config.Arrivals it replays in constant
// memory, bit-identical to replaying the written Trace through its Cursor.
type TraceStream struct {
	cr   *csv.Reader
	ids  map[string]model.RequestID
	row  int
	last float64
	err  error
	done bool
}

// NewTraceStream opens a cursor over r, validating the header row.
func NewTraceStream(r io.Reader) (*TraceStream, error) {
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	cr.FieldsPerRecord = 2
	rec, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("workload: read trace header: %w", err)
	}
	if rec[0] != "time" || rec[1] != "request" {
		return nil, fmt.Errorf("workload: bad trace header %v", rec)
	}
	return &TraceStream{cr: cr, ids: make(map[string]model.RequestID)}, nil
}

// NextArrival returns the next trace row; ok is false at end of file or on
// the first malformed row (check Err to tell the two apart).
func (t *TraceStream) NextArrival() (float64, model.RequestID, bool) {
	if t.done {
		return 0, "", false
	}
	rec, err := t.cr.Read()
	if err == io.EOF {
		t.done = true
		return 0, "", false
	}
	t.row++
	if err != nil {
		t.fail(fmt.Errorf("workload: trace row %d: %w", t.row, err))
		return 0, "", false
	}
	tm, err := strconv.ParseFloat(rec[0], 64)
	if err != nil {
		t.fail(fmt.Errorf("workload: trace row %d: bad time %q: %w", t.row, rec[0], err))
		return 0, "", false
	}
	if math.IsNaN(tm) || tm < 0 {
		t.fail(fmt.Errorf("workload: trace row %d: negative or NaN time %v", t.row, tm))
		return 0, "", false
	}
	if tm < t.last {
		t.fail(fmt.Errorf("workload: trace row %d: time %v decreases below %v (streamed traces must be time-ordered)", t.row, tm, t.last))
		return 0, "", false
	}
	t.last = tm
	// Intern the request ID: the map lookup on the reused record's field
	// allocates nothing on a hit, so long-lived memory stays O(#requests).
	id, ok := t.ids[rec[1]]
	if !ok {
		s := strings.Clone(rec[1])
		id = model.RequestID(s)
		t.ids[s] = id
	}
	return tm, id, true
}

// Err reports why the stream stopped: nil after a clean end of file, the
// first row error otherwise.
func (t *TraceStream) Err() error { return t.err }

func (t *TraceStream) fail(err error) {
	t.done = true
	if t.err == nil {
		t.err = err
	}
}
