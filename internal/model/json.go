package model

import (
	"fmt"
	"io"
	"slices"

	"nfvchain/internal/wirejson"
)

// The codec below writes and reads exactly the documents encoding/json
// produces and accepts for these types (struct tags in model.go, placement.go
// and schedule.go), through internal/wirejson instead of reflection. A
// repeated key is the one input encoding/json merges and this codec rejects.
// The differential tests keep encoding/json as the oracle.

// WriteJSON serializes the problem as indented JSON, byte for byte what a
// json.Encoder with SetIndent("", "  ") writes.
func (p *Problem) WriteJSON(w io.Writer) error {
	if err := wirejson.Encode(w, p.AppendWire); err != nil {
		return fmt.Errorf("model: encode problem: %w", err)
	}
	return nil
}

// ReadJSON parses a problem from JSON and validates it. Decoding is strict:
// an unknown or repeated field is an error. As with a json.Decoder, only
// the first JSON value is read; anything after it is ignored.
func ReadJSON(r io.Reader) (*Problem, error) {
	var p Problem
	if err := wirejson.Decode(r, p.DecodeWire); err != nil {
		return nil, fmt.Errorf("model: decode problem: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("model: invalid problem: %w", err)
	}
	return &p, nil
}

// MarshalJSON encodes the problem as json.Marshal would by reflection.
func (p Problem) MarshalJSON() ([]byte, error) { return wirejson.Marshal(p.AppendWire) }

// UnmarshalJSON decodes a problem strictly (unknown or repeated fields are
// errors), whether or not the calling json.Decoder disallows unknown fields.
func (p *Problem) UnmarshalJSON(data []byte) error { return wirejson.Unmarshal(data, p.DecodeWire) }

// MarshalJSON encodes the placement as json.Marshal would by reflection.
func (pl Placement) MarshalJSON() ([]byte, error) { return wirejson.Marshal(pl.AppendWire) }

// UnmarshalJSON decodes a placement strictly.
func (pl *Placement) UnmarshalJSON(data []byte) error { return wirejson.Unmarshal(data, pl.DecodeWire) }

// MarshalJSON encodes the schedule as json.Marshal would by reflection.
func (s Schedule) MarshalJSON() ([]byte, error) { return wirejson.Marshal(s.AppendWire) }

// UnmarshalJSON decodes a schedule strictly.
func (s *Schedule) UnmarshalJSON(data []byte) error { return wirejson.Unmarshal(data, s.DecodeWire) }

var (
	problemFields   = wirejson.NewFields("nodes", "vnfs", "requests")
	nodeFields      = wirejson.NewFields("id", "name", "capacity", "extras")
	vnfFields       = wirejson.NewFields("id", "name", "category", "instances", "demand", "serviceRate", "extras")
	requestFields   = wirejson.NewFields("id", "chain", "rate", "deliveryProb")
	placementFields = wirejson.NewFields("nodeOf")
	scheduleFields  = wirejson.NewFields("instanceOf")
)

// AppendWire writes the problem as a JSON object.
func (p *Problem) AppendWire(w *wirejson.Writer) {
	w.BeginObject()
	w.Key("nodes")
	appendSlice(w, p.Nodes, (*Node).appendWire)
	w.Key("vnfs")
	appendSlice(w, p.VNFs, (*VNF).appendWire)
	w.Key("requests")
	appendSlice(w, p.Requests, (*Request).appendWire)
	w.EndObject()
}

// DecodeWire reads a problem object into p; null leaves p unchanged. The
// request chains are carved from one block, so they cost one allocation
// (and its growth) rather than one each.
func (p *Problem) DecodeWire(r *wirejson.Reader) {
	var seen uint64
	r.Object(func(key []byte) {
		switch r.Field(problemFields, key, &seen) {
		case 0:
			p.Nodes = wirejson.Slice(r, func(n *Node) { n.decodeWire(r) })
		case 1:
			p.VNFs = wirejson.Slice(r, func(f *VNF) { f.decodeWire(r) })
		case 2:
			var block []VNFID
			p.Requests = wirejson.Slice(r, func(q *Request) { q.decodeWire(r, &block) })
			carveChains(p.Requests, block)
		}
	})
}

// carveChains points every non-empty chain at its run of block. The chains
// were appended to block in request order and each decoded chain holds
// its length, so a running sum gives the offsets. Each chain is capped at
// its length: an append to one copies rather than writing into the next.
func carveChains(reqs []Request, block []VNFID) {
	off := 0
	for i := range reqs {
		if n := len(reqs[i].Chain); n > 0 {
			reqs[i].Chain = block[off : off+n : off+n]
			off += n
		}
	}
}

// appendSlice writes a slice as an array, or null when it is nil.
func appendSlice[T any](w *wirejson.Writer, s []T, elem func(*T, *wirejson.Writer)) {
	if s == nil {
		w.Null()
		return
	}
	w.BeginArray()
	for i := range s {
		elem(&s[i], w)
	}
	w.EndArray()
}

func appendFloats(w *wirejson.Writer, xs []float64) {
	appendSlice(w, xs, func(x *float64, w *wirejson.Writer) { w.Float(*x) })
}

func decodeFloats(r *wirejson.Reader) []float64 {
	return wirejson.Slice(r, func(x *float64) { *x = r.Float() })
}

func (n *Node) appendWire(w *wirejson.Writer) {
	w.BeginObject()
	w.Key("id")
	w.String(string(n.ID))
	if n.Name != "" {
		w.Key("name")
		w.String(n.Name)
	}
	w.Key("capacity")
	w.Float(n.Capacity)
	if len(n.Extras) > 0 {
		w.Key("extras")
		appendFloats(w, n.Extras)
	}
	w.EndObject()
}

func (n *Node) decodeWire(r *wirejson.Reader) {
	var seen uint64
	r.Object(func(key []byte) {
		switch r.Field(nodeFields, key, &seen) {
		case 0:
			n.ID = NodeID(r.Str())
		case 1:
			n.Name = r.Str()
		case 2:
			n.Capacity = r.Float()
		case 3:
			n.Extras = decodeFloats(r)
		}
	})
}

func (f *VNF) appendWire(w *wirejson.Writer) {
	w.BeginObject()
	w.Key("id")
	w.String(string(f.ID))
	if f.Name != "" {
		w.Key("name")
		w.String(f.Name)
	}
	if f.Category != "" {
		w.Key("category")
		w.String(f.Category)
	}
	w.Key("instances")
	w.Int(f.Instances)
	w.Key("demand")
	w.Float(f.Demand)
	w.Key("serviceRate")
	w.Float(f.ServiceRate)
	if len(f.Extras) > 0 {
		w.Key("extras")
		appendFloats(w, f.Extras)
	}
	w.EndObject()
}

func (f *VNF) decodeWire(r *wirejson.Reader) {
	var seen uint64
	r.Object(func(key []byte) {
		switch r.Field(vnfFields, key, &seen) {
		case 0:
			f.ID = VNFID(r.Str())
		case 1:
			f.Name = r.Str()
		case 2:
			f.Category = r.Str()
		case 3:
			f.Instances = r.Int()
		case 4:
			f.Demand = r.Float()
		case 5:
			f.ServiceRate = r.Float()
		case 6:
			f.Extras = decodeFloats(r)
		}
	})
}

func (q *Request) appendWire(w *wirejson.Writer) {
	w.BeginObject()
	w.Key("id")
	w.String(string(q.ID))
	w.Key("chain")
	appendSlice(w, q.Chain, func(f *VNFID, w *wirejson.Writer) { w.String(string(*f)) })
	w.Key("rate")
	w.Float(q.Rate)
	w.Key("deliveryProb")
	w.Float(q.DeliveryProb)
	w.EndObject()
}

// decodeWire reads a request object into q, appending its chain to block.
// q.Chain is left with the chain's length, or nil for null; carveChains
// points it at block once every request is read.
func (q *Request) decodeWire(r *wirejson.Reader, block *[]VNFID) {
	var seen uint64
	r.Object(func(key []byte) {
		switch r.Field(requestFields, key, &seen) {
		case 0:
			q.ID = RequestID(r.Str())
		case 1:
			if r.Null() {
				q.Chain = nil
				return
			}
			start := len(*block)
			r.Array(func() {
				if len(*block) == cap(*block) { // double: fewer, smaller copies than append's growth
					*block = slices.Grow(*block, max(len(*block), 64))
				}
				*block = append(*block, VNFID(r.Str()))
			})
			if q.Chain = (*block)[start:]; len(q.Chain) == 0 {
				q.Chain = []VNFID{}
			}
		case 2:
			q.Rate = r.Float()
		case 3:
			q.DeliveryProb = r.Float()
		}
	})
}

// AppendWire writes the placement as a JSON object, map keys sorted.
func (pl *Placement) AppendWire(w *wirejson.Writer) {
	w.BeginObject()
	w.Key("nodeOf")
	if pl.NodeOf == nil {
		w.Null()
	} else {
		w.BeginObject()
		for _, f := range sortedKeys(pl.NodeOf, nil) {
			w.Key(string(f))
			w.String(string(pl.NodeOf[f]))
		}
		w.EndObject()
	}
	w.EndObject()
}

// DecodeWire reads a placement object into pl; null leaves pl unchanged.
func (pl *Placement) DecodeWire(r *wirejson.Reader) {
	var seen uint64
	r.Object(func(key []byte) {
		if r.Field(placementFields, key, &seen) < 0 {
			return
		}
		pl.NodeOf = wirejson.Map(r, func(m map[VNFID]NodeID, f VNFID) { m[f] = NodeID(r.Str()) })
	})
}

// AppendWire writes the schedule as a JSON object: rows in request ID
// order, each row's entries in VNF ID order, as encoding/json sorts map keys.
func (s *Schedule) AppendWire(w *wirejson.Writer) {
	w.BeginObject()
	w.Key("instanceOf")
	if !s.object {
		w.Null()
	} else {
		w.BeginObject()
		s.walk(func(r RequestID, null bool) {
			w.Key(string(r))
			if null {
				w.Null()
			} else {
				w.BeginObject()
			}
		}, func(f VNFID, k int) {
			w.Key(string(f))
			w.Int(k)
		}, func(null bool) {
			if !null {
				w.EndObject()
			}
		})
		w.EndObject()
	}
	w.EndObject()
}

// DecodeWire replaces s with the schedule object read, laid out on s's
// index; null leaves s unchanged. Rows whose request the index knows go
// straight into their slots. What the slots cannot hold is appended in
// document order and sorted once at the end, so the decode stays linear in
// whatever order the document lists its keys.
func (s *Schedule) DecodeWire(r *wirejson.Reader) {
	if r.Null() {
		return
	}
	s.reset()
	s.object = false
	d := looseDecoder{s: s}
	defer d.finish()
	var seen uint64
	r.Object(func(key []byte) {
		if r.Field(scheduleFields, key, &seen) < 0 {
			return
		}
		if s.object = !r.Null(); !s.object {
			return
		}
		r.Object(func(key []byte) {
			ri, id := -1, RequestID("")
			if s.ix != nil {
				ri, _ = s.ix.Request(RequestID(key))
			}
			if ri >= 0 {
				id = s.ix.p.Requests[ri].ID
			} else {
				id = RequestID(key)
			}
			if ri >= 0 && s.row[ri] != rowAbsent || ri < 0 && d.hasRow(id) {
				duplicate(r, id)
				return
			}
			null := r.Null()
			switch {
			case ri < 0:
				d.row(id).null = null
			case null:
				s.row[ri] = rowNull
			default:
				s.row[ri] = 0
			}
			if null {
				return
			}
			r.Object(func(key []byte) {
				slot, f := -1, VNFID("")
				if ri >= 0 {
					slot = s.slotOf(ri, VNFID(key))
				}
				if slot >= 0 {
					lo, _ := s.ix.ChainSlots(ri)
					f = s.ix.p.Requests[ri].Chain[slot-lo]
				} else {
					f = VNFID(key)
				}
				if slot >= 0 && s.inst[slot] != unassigned || d.hasEntry(id, f) {
					duplicate(r, f)
					return
				}
				k := r.Int()
				if slot >= 0 && fits(k) {
					s.inst[slot] = int32(k)
					s.row[ri]++
					return
				}
				d.add(ri, id, f, k)
			})
		})
	})
}

func duplicate[K ~string](r *wirejson.Reader, k K) {
	r.Fail(fmt.Errorf("%w %q", wirejson.ErrDuplicateKey, k))
}

// sortedKeys appends m's keys to dst in increasing byte order, the order
// encoding/json writes map members in.
func sortedKeys[K ~string, V any](m map[K]V, dst []K) []K {
	dst = slices.Grow(dst, len(m))
	for k := range m {
		dst = append(dst, k)
	}
	slices.Sort(dst)
	return dst
}
