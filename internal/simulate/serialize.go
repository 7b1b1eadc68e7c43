package simulate

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"nfvchain/internal/model"
	"nfvchain/internal/stats"
	"nfvchain/internal/wirejson"
)

// The stable wire form of a Results is one JSON object with the members of
// resultsFields, in that order. Instance-keyed maps are flattened into
// arrays of {"vnf", "instance", <value>} rows sorted by (vnf, instance) —
// struct map keys have no JSON spelling — and string-keyed maps are written
// with sorted keys, so encoding the same Results always yields the same
// bytes (the property the service result cache and the golden fixture
// depend on). The optional members are omitted when empty or zero; "shed"
// is omitted when zero so control-free results keep the historical
// encoding. The codec writes exactly what encoding/json wrote for the
// struct mirror kept in the tests as the oracle.
//
// "agenda" names the event-queue backend. The heap is the only one, so the
// writer always writes "heap"; the reader also accepts the spellings older
// documents carry ("auto", "ladder").
var (
	resultsFields = wirejson.NewFields("horizon", "warmup", "agenda", "generated", "delivered",
		"latency", "latencySamples", "retransmissions", "dropped", "droppedByInstance",
		"dropRetransmits", "inFlight", "shed", "failureDrops", "failureDropsByInstance",
		"failRetransmits", "downtime", "availability", "utilization", "meanJobs",
		"perRequest", "perInstance")
	countRowFields   = wirejson.NewFields("vnf", "instance", "count")
	valueRowFields   = wirejson.NewFields("vnf", "instance", "value")
	summaryRowFields = wirejson.NewFields("vnf", "instance", "summary")
)

// WriteJSON serializes the results as indented JSON in a stable encoding:
// identical Results always produce identical bytes.
func (r *Results) WriteJSON(w io.Writer) error {
	if err := wirejson.Encode(w, r.AppendWire); err != nil {
		return fmt.Errorf("simulate: encode results: %w", err)
	}
	return nil
}

// ReadResultsJSON parses results written by WriteJSON. Decoding is strict:
// an unknown or repeated field, a second row for one instance and a null
// per-request summary are errors, so wire-format drift fails loudly. As
// with a json.Decoder, only the first JSON value is read. The returned
// Results is independently owned (maps are always non-nil, mirroring a
// fresh Run).
func ReadResultsJSON(r io.Reader) (*Results, error) {
	var res Results
	if err := wirejson.Decode(r, res.DecodeWire); err != nil {
		return nil, fmt.Errorf("simulate: decode results: %w", err)
	}
	return &res, nil
}

// AppendWire writes the results as a JSON object.
func (r *Results) AppendWire(w *wirejson.Writer) {
	w.BeginObject()
	w.Key("horizon")
	w.Float(r.Horizon)
	w.Key("warmup")
	w.Float(r.Warmup)
	w.Key("agenda")
	w.String("heap")
	w.Key("generated")
	w.Int(r.Generated)
	w.Key("delivered")
	w.Int(r.Delivered)
	w.Key("latency")
	r.Latency.AppendWire(w)
	if len(r.LatencySamples) > 0 {
		w.Key("latencySamples")
		w.BeginArray()
		for _, x := range r.LatencySamples {
			w.Float(x)
		}
		w.EndArray()
	}
	w.Key("retransmissions")
	w.Int(r.Retransmissions)
	w.Key("dropped")
	w.Int(r.Dropped)
	appendRows(w, "droppedByInstance", "count", r.DroppedByInstance, w.Int)
	w.Key("dropRetransmits")
	w.Int(r.DropRetransmits)
	w.Key("inFlight")
	w.Int(r.InFlight)
	if r.Shed != 0 {
		w.Key("shed")
		w.Int(r.Shed)
	}
	w.Key("failureDrops")
	w.Int(r.FailureDrops)
	appendRows(w, "failureDropsByInstance", "count", r.FailureDropsByInstance, w.Int)
	w.Key("failRetransmits")
	w.Int(r.FailRetransmits)
	if len(r.Downtime) > 0 {
		w.Key("downtime")
		w.BeginObject()
		for _, n := range sortedIDs(r.Downtime) {
			w.Key(string(n))
			w.Float(r.Downtime[n])
		}
		w.EndObject()
	}
	w.Key("availability")
	w.Float(r.Availability)
	appendRows(w, "utilization", "value", r.Utilization, w.Float)
	appendRows(w, "meanJobs", "value", r.MeanJobs, w.Float)
	if len(r.PerRequest) > 0 {
		w.Key("perRequest")
		w.BeginObject()
		for _, id := range sortedIDs(r.PerRequest) {
			w.Key(string(id))
			appendSummary(w, r.PerRequest[id])
		}
		w.EndObject()
	}
	appendRows(w, "perInstance", "summary", r.PerInstance, func(s *stats.Summary) { appendSummary(w, s) })
	w.EndObject()
}

func appendSummary(w *wirejson.Writer, s *stats.Summary) {
	if s == nil {
		w.Null()
		return
	}
	s.AppendWire(w)
}

// appendRows writes m under key as an array of {"vnf", "instance", field}
// rows sorted by (vnf, instance), or nothing when m is empty.
func appendRows[V any](w *wirejson.Writer, key, field string, m map[InstanceKey]V, value func(V)) {
	if len(m) == 0 {
		return
	}
	w.Key(key)
	w.BeginArray()
	for _, k := range sortedKeys(m) {
		w.BeginObject()
		w.Key("vnf")
		w.String(string(k.VNF))
		w.Key("instance")
		w.Int(k.Instance)
		w.Key(field)
		value(m[k])
		w.EndObject()
	}
	w.EndArray()
}

// sortedKeys returns the map's instance keys ordered by (vnf, instance).
func sortedKeys[V any](m map[InstanceKey]V) []InstanceKey {
	keys := make([]InstanceKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b InstanceKey) int {
		return cmp.Or(cmp.Compare(a.VNF, b.VNF), cmp.Compare(a.Instance, b.Instance))
	})
	return keys
}

// sortedIDs returns the map's keys in increasing byte order, the order
// encoding/json writes map members in.
func sortedIDs[K ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// DecodeWire replaces r with the results object read. Its maps are always
// non-nil. The agenda must be one the writer ever recorded.
func (r *Results) DecodeWire(rd *wirejson.Reader) {
	*r = Results{
		DroppedByInstance:      make(map[InstanceKey]int),
		FailureDropsByInstance: make(map[InstanceKey]int),
		Downtime:               make(map[model.NodeID]float64),
		Utilization:            make(map[InstanceKey]float64),
		MeanJobs:               make(map[InstanceKey]float64),
		PerRequest:             make(map[model.RequestID]*stats.Summary),
		PerInstance:            make(map[InstanceKey]*stats.Summary),
	}
	// The per-request and per-instance summaries are carved from shared
	// blocks: one allocation per block instead of one per summary.
	var block []stats.Summary
	newSummary := func() *stats.Summary {
		if len(block) == cap(block) {
			block = make([]stats.Summary, 0, 64)
		}
		block = block[:len(block)+1]
		return &block[len(block)-1]
	}
	var agenda string
	var seen uint64
	rd.Object(func(key []byte) {
		switch rd.Field(resultsFields, key, &seen) {
		case 0:
			r.Horizon = rd.Float()
		case 1:
			r.Warmup = rd.Float()
		case 2:
			agenda = rd.Str()
		case 3:
			r.Generated = rd.Int()
		case 4:
			r.Delivered = rd.Int()
		case 5:
			r.Latency.DecodeWire(rd)
		case 6:
			// Every sample is also counted in latency.n, which the writer
			// puts first: size the slice from it.
			r.LatencySamples = wirejson.SliceN(rd, r.Latency.N(), func(x *float64) { *x = rd.Float() })
		case 7:
			r.Retransmissions = rd.Int()
		case 8:
			r.Dropped = rd.Int()
		case 9:
			decodeRows(rd, countRowFields, r.DroppedByInstance, nil, func(c *int) { *c = rd.Int() })
		case 10:
			r.DropRetransmits = rd.Int()
		case 11:
			r.InFlight = rd.Int()
		case 12:
			r.Shed = rd.Int()
		case 13:
			r.FailureDrops = rd.Int()
		case 14:
			decodeRows(rd, countRowFields, r.FailureDropsByInstance, nil, func(c *int) { *c = rd.Int() })
		case 15:
			r.FailRetransmits = rd.Int()
		case 16:
			if m := wirejson.Map(rd, func(m map[model.NodeID]float64, n model.NodeID) { m[n] = rd.Float() }); m != nil {
				r.Downtime = m
			}
		case 17:
			r.Availability = rd.Float()
		case 18:
			decodeRows(rd, valueRowFields, r.Utilization, nil, func(x *float64) { *x = rd.Float() })
		case 19:
			decodeRows(rd, valueRowFields, r.MeanJobs, nil, func(x *float64) { *x = rd.Float() })
		case 20:
			m := wirejson.Map(rd, func(m map[model.RequestID]*stats.Summary, id model.RequestID) {
				if rd.Null() {
					rd.Fail(fmt.Errorf("null summary for request %q", id))
					return
				}
				s := newSummary()
				s.DecodeWire(rd)
				m[id] = s
			})
			if m != nil {
				r.PerRequest = m
			}
		case 21:
			decodeRows(rd, summaryRowFields, r.PerInstance, newSummary, func(s **stats.Summary) { (*s).DecodeWire(rd) })
		}
	})
	switch agenda {
	case "heap", "ladder", "auto":
	default:
		rd.Fail(fmt.Errorf("unknown agenda %q (want heap)", agenda))
	}
}

// decodeRows reads an array of {"vnf", "instance", <value>} rows into m,
// decoding each row's third member with value into a value that starts as
// newValue() (the zero value when newValue is nil). A second row for the
// same instance is an error.
func decodeRows[V any](rd *wirejson.Reader, fields *wirejson.Fields, m map[InstanceKey]V, newValue func() V, value func(*V)) {
	rd.Array(func() {
		var k InstanceKey
		var v V
		if newValue != nil {
			v = newValue()
		}
		var seen uint64
		rd.Object(func(key []byte) {
			switch rd.Field(fields, key, &seen) {
			case 0:
				k.VNF = model.VNFID(rd.Str())
			case 1:
				k.Instance = rd.Int()
			case 2:
				value(&v)
			}
		})
		if _, dup := m[k]; dup {
			rd.Fail(fmt.Errorf("%w: second row for instance (%q, %d)", wirejson.ErrDuplicateKey, k.VNF, k.Instance))
			return
		}
		m[k] = v
	})
}

// A FaultPlan travels in nfvd's simulate requests. Its types carry no
// JSON tags, so the wire names are the Go field names, and nil Outages and
// Preemption are written as null, as encoding/json writes them.
var (
	faultPlanFields  = wirejson.NewFields("MTBF", "MTTR", "Outages", "Preemption")
	outageFields     = wirejson.NewFields("Node", "DownAt", "UpAt")
	preemptionFields = wirejson.NewFields("MeanInterval", "GroupSize", "Recovery", "LeadTime")
)

// AppendWire writes the plan as a JSON object.
func (fp *FaultPlan) AppendWire(w *wirejson.Writer) {
	w.BeginObject()
	w.Key("MTBF")
	w.Float(fp.MTBF)
	w.Key("MTTR")
	w.Float(fp.MTTR)
	w.Key("Outages")
	if fp.Outages == nil {
		w.Null()
	} else {
		w.BeginArray()
		for i := range fp.Outages {
			fp.Outages[i].AppendWire(w)
		}
		w.EndArray()
	}
	w.Key("Preemption")
	if pp := fp.Preemption; pp == nil {
		w.Null()
	} else {
		w.BeginObject()
		w.Key("MeanInterval")
		w.Float(pp.MeanInterval)
		w.Key("GroupSize")
		w.Int(pp.GroupSize)
		w.Key("Recovery")
		w.Float(pp.Recovery)
		w.Key("LeadTime")
		w.Float(pp.LeadTime)
		w.EndObject()
	}
	w.EndObject()
}

// DecodeWire reads a plan object into fp; null leaves fp unchanged.
func (fp *FaultPlan) DecodeWire(r *wirejson.Reader) {
	var seen uint64
	r.Object(func(key []byte) {
		switch r.Field(faultPlanFields, key, &seen) {
		case 0:
			fp.MTBF = r.Float()
		case 1:
			fp.MTTR = r.Float()
		case 2:
			fp.Outages = wirejson.Slice(r, func(o *Outage) { o.DecodeWire(r) })
		case 3:
			if r.Null() {
				return
			}
			pp := new(PreemptionPlan)
			var seen uint64
			r.Object(func(key []byte) {
				switch r.Field(preemptionFields, key, &seen) {
				case 0:
					pp.MeanInterval = r.Float()
				case 1:
					pp.GroupSize = r.Int()
				case 2:
					pp.Recovery = r.Float()
				case 3:
					pp.LeadTime = r.Float()
				}
			})
			fp.Preemption = pp
		}
	})
}

// AppendWire writes the outage as a JSON object.
func (o *Outage) AppendWire(w *wirejson.Writer) {
	w.BeginObject()
	w.Key("Node")
	w.String(string(o.Node))
	w.Key("DownAt")
	w.Float(o.DownAt)
	w.Key("UpAt")
	w.Float(o.UpAt)
	w.EndObject()
}

// DecodeWire reads an outage object into o; null leaves o unchanged.
func (o *Outage) DecodeWire(r *wirejson.Reader) {
	var seen uint64
	r.Object(func(key []byte) {
		switch r.Field(outageFields, key, &seen) {
		case 0:
			o.Node = model.NodeID(r.Str())
		case 1:
			o.DownAt = r.Float()
		case 2:
			o.UpAt = r.Float()
		}
	})
}
