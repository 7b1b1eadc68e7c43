package workload

import (
	"cmp"
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"

	"nfvchain/internal/model"
)

// Arrival is one packet arrival of a request.
type Arrival struct {
	Time    float64 // seconds from trace start
	Request model.RequestID
}

// Trace is a packet-level arrival trace over a finite horizon, sorted by
// time. Its Cursor drives the discrete-event simulator in trace-driven
// mode, and it can be exported/imported as CSV.
type Trace struct {
	Horizon  float64
	Arrivals []Arrival
}

// InterArrival selects the inter-arrival time distribution of generated
// traces.
type InterArrival int

// Supported inter-arrival processes. Exponential matches the paper's model
// assumptions; LogNormal reproduces the heavier-tailed flow inter-arrivals
// measured in datacenters (Benson et al.), with the same mean rate.
const (
	InterArrivalExponential InterArrival = iota + 1
	InterArrivalLogNormal
)

// logNormalSigma is the shape parameter of the log-normal inter-arrival
// mode; σ ≈ 1 gives the pronounced burstiness of measured flow traces.
const logNormalSigma = 1.0

// GenerateTrace samples packet arrivals for every request in the problem up
// to the horizon. Each request uses an independent derived stream, so the
// trace for any subset of requests is invariant to the others. It is built
// on TraceSources — the materializing counterpart of streaming the same
// sources through a MergedStream (draw-for-draw identical, so the two paths
// produce byte-identical CSV).
func GenerateTrace(p *model.Problem, horizon float64, dist InterArrival, seed uint64) (*Trace, error) {
	if horizon <= 0 {
		return nil, fmt.Errorf("workload: horizon %v must be positive", horizon)
	}
	srcs, err := TraceSources(p, dist, seed)
	if err != nil {
		return nil, err
	}
	tr := &Trace{Horizon: horizon}
	for _, r := range p.Requests {
		src := srcs[r.ID]
		t := 0.0
		for {
			next, ok := src.Next(t)
			if !ok || next >= horizon {
				break
			}
			tr.Arrivals = append(tr.Arrivals, Arrival{Time: next, Request: r.ID})
			t = next
		}
	}
	tr.sort()
	return tr, nil
}

func (t *Trace) sort() {
	sort.SliceStable(t.Arrivals, func(i, j int) bool {
		if t.Arrivals[i].Time != t.Arrivals[j].Time {
			return t.Arrivals[i].Time < t.Arrivals[j].Time
		}
		return t.Arrivals[i].Request < t.Arrivals[j].Request
	})
}

// Cursor returns an ArrivalCursor over a copy of the trace's rows sorted
// stably by time, so a hand-built trace that is not sorted replays in
// (time, row) order. Each replay needs its own cursor.
func (t *Trace) Cursor() ArrivalCursor {
	c := &sliceCursor{rows: slices.Clone(t.Arrivals)}
	slices.SortStableFunc(c.rows, func(a, b Arrival) int { return cmp.Compare(a.Time, b.Time) })
	return c
}

// sliceCursor walks an in-memory row slice.
type sliceCursor struct {
	rows []Arrival
	next int
}

func (c *sliceCursor) NextArrival() (float64, model.RequestID, bool) {
	if c.next >= len(c.rows) {
		return 0, "", false
	}
	c.next++
	return c.rows[c.next-1].Time, c.rows[c.next-1].Request, true
}

func (c *sliceCursor) Err() error { return nil }

// Len returns the number of arrivals.
func (t *Trace) Len() int { return len(t.Arrivals) }

// WriteCSV writes the trace as "time,request" rows with a header.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time", "request"}); err != nil {
		return fmt.Errorf("workload: write trace header: %w", err)
	}
	for _, a := range t.Arrivals {
		rec := []string{strconv.FormatFloat(a.Time, 'g', -1, 64), string(a.Request)}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("workload: write trace row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("workload: flush trace: %w", err)
	}
	return nil
}
