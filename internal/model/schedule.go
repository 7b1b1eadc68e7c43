package model

import (
	"cmp"
	"fmt"
	"math"
	"slices"
)

// Schedule is the paper's z_{r,k}^f (Eq. 5): for each request r and each
// VNF f on its chain, the zero-based instance k < M_f that serves r at f.
//
// A schedule is laid out on its problem's Index: one int32 instance per
// chain slot, and one state per request row. A row is absent (a request
// admission control rejected, or one never scheduled), null, or an object
// holding some of the request's chain; an object with no entry is {}. These
// are the shapes the JSON form tells apart. What the slots cannot hold (a
// request the index does not know, a VNF outside the request's chain, an
// instance outside int32) is kept apart, sorted by ID, so that Validate
// reports it and the JSON form writes it back. A schedule decoded without
// its problem has no index and keeps every row apart; For lays it out.
type Schedule struct {
	ix     *Index
	cells  []int32    // row then inst, in one allocation
	row    []int32    // per request ordinal: rowAbsent, rowNull, or its entry count
	inst   []int32    // per chain slot: the instance, or unassigned
	loose  []looseRow // what the rows cannot hold, sorted by request ID
	object bool       // instanceOf is an object, not null
}

const (
	rowAbsent  = -2
	rowNull    = -1
	unassigned = math.MinInt32
)

// looseRow holds the entries of one request that its row cannot hold: all
// of them when the index does not know the request, otherwise those outside
// its chain or outside int32.
type looseRow struct {
	id      RequestID
	null    bool         // an unknown request's row is null
	entries []looseEntry // sorted by VNF ID
}

type looseEntry struct {
	vnf VNFID
	k   int
}

// NewSchedule returns an empty schedule laid out on ix, or one with no
// layout when ix is nil.
func NewSchedule(ix *Index) *Schedule {
	s := &Schedule{ix: ix, object: true}
	if ix != nil {
		nR := len(ix.byReq)
		s.cells = make([]int32, nR+len(ix.chain))
		s.row, s.inst = s.cells[:nR:nR], s.cells[nR:]
	}
	s.reset()
	return s
}

// reset empties every row, keeping the layout.
func (s *Schedule) reset() {
	for i := range s.row {
		s.row[i] = rowAbsent
	}
	for i := range s.inst {
		s.inst[i] = unassigned
	}
	s.loose = nil
}

// Index returns the index the schedule is laid out on, nil when it has none.
func (s *Schedule) Index() *Index { return s.ix }

// For returns s when it is laid out on p's index, and otherwise a copy laid
// out on a fresh one, leaving s as it is. Ordinal accessors (At, Assigned,
// AssignSlot, Remove) address For(p)'s layout. An index still counts as
// p's while p keeps the number of its VNFs and requests (the layout does
// not depend on the nodes).
func (s *Schedule) For(p *Problem) *Schedule {
	if ix := s.ix; ix != nil && ix.p == p && len(ix.byVNF) == len(p.VNFs) && len(ix.byReq) == len(p.Requests) {
		return s
	}
	t := NewSchedule(Compile(p))
	t.object = s.object
	var id RequestID
	s.walk(func(r RequestID, null bool) {
		id = r
		t.openRow(t.request(r), r, null)
	}, func(f VNFID, k int) { t.Assign(id, f, k) }, func(bool) {})
	return t
}

// Clone returns a deep copy of the schedule on the same index.
func (s *Schedule) Clone() *Schedule {
	out := &Schedule{ix: s.ix, object: s.object}
	if s.cells != nil {
		out.cells = slices.Clone(s.cells)
		out.row, out.inst = out.cells[:len(s.row):len(s.row)], out.cells[len(s.row):]
	}
	if len(s.loose) > 0 {
		out.loose = make([]looseRow, len(s.loose))
		for i, l := range s.loose {
			l.entries = slices.Clone(l.entries)
			out.loose[i] = l
		}
	}
	return out
}

// Assign records that request r uses instance k of VNF f.
func (s *Schedule) Assign(r RequestID, f VNFID, k int) {
	ri, slot := s.request(r), -1
	if ri >= 0 {
		slot = s.slotOf(ri, f)
	}
	s.put(ri, r, slot, f, k)
}

// AssignSlot records that request ordinal r uses instance k at its chain
// slot slot, as Assign does for the VNF of that stage.
func (s *Schedule) AssignSlot(r, slot, k int) {
	lo, _ := s.ix.ChainSlots(r)
	q := &s.ix.p.Requests[r]
	s.put(r, q.ID, slot, q.Chain[slot-lo], k)
}

// Instance returns the instance of f serving request r, or false when
// unassigned.
func (s *Schedule) Instance(r RequestID, f VNFID) (int, bool) {
	slot := -1
	if ri := s.request(r); ri >= 0 {
		slot = s.slotOf(ri, f)
	}
	return s.get(r, slot, f)
}

// At returns the instance at chain slot i, or false when the slot holds
// none. An instance outside int32 is kept apart and reads as none here;
// Validate rejects it.
func (s *Schedule) At(i int) (int, bool) {
	k := s.inst[i]
	return int(k), k != unassigned
}

// Assigned reports whether request ordinal r has at least one entry: false
// for an absent, null or {} row, the rows of rejected requests.
func (s *Schedule) Assigned(r int) bool { return s.row[r] > 0 }

// Remove deletes request ordinal r's row, as admission control does for a
// rejected request.
func (s *Schedule) Remove(r int) {
	s.row[r] = rowAbsent
	lo, hi := s.ix.ChainSlots(r)
	for i := lo; i < hi; i++ {
		s.inst[i] = unassigned
	}
	if i, ok := s.looseIndex(s.ix.p.Requests[r].ID); ok {
		s.loose = slices.Delete(s.loose, i, i+1)
	}
}

// Validate checks Eq. 5 against the problem: every request is assigned to
// exactly one valid instance of every VNF in its chain, and to no VNF outside
// its chain.
func (s *Schedule) Validate(p *Problem) error { return s.For(p).validate(p, false) }

// ValidatePartial is Validate for post-admission schedules: a request may be
// entirely absent (it was rejected), but a present request must be assigned
// for exactly its whole chain, on valid instances.
func (s *Schedule) ValidatePartial(p *Problem) error { return s.For(p).validate(p, true) }

// validate checks a schedule laid out on p's index, request by request in
// problem order, then the requests p does not define. It allocates only for
// the error it returns.
func (s *Schedule) validate(p *Problem, partial bool) error {
	for ri := range p.Requests {
		r := &p.Requests[ri]
		if partial && s.row[ri] <= 0 {
			continue // rejected by admission control
		}
		lo, _ := s.ix.ChainSlots(ri)
		for j, f := range r.Chain {
			k, ok := s.get(r.ID, lo+j, f)
			if !ok {
				if partial {
					return fmt.Errorf("schedule: request %s partially assigned: missing vnf %s", r.ID, f)
				}
				return fmt.Errorf("schedule: request %s unassigned for vnf %s", r.ID, f)
			}
			fo := s.ix.chain[lo+j]
			if fo < 0 {
				return fmt.Errorf("schedule: request %s assigned to undefined vnf %s", r.ID, f)
			}
			if m := p.VNFs[fo].Instances; k < 0 || k >= m {
				return fmt.Errorf("schedule: request %s vnf %s instance %d outside [0,%d)", r.ID, f, k, m)
			}
		}
		if l := s.looseOf(r.ID); l != nil {
			for _, e := range l.entries {
				if !r.Uses(e.vnf) {
					return fmt.Errorf("schedule: request %s assigned to vnf %s outside its chain", r.ID, e.vnf)
				}
			}
		}
	}
	for _, l := range s.loose {
		if s.request(l.id) < 0 {
			return fmt.Errorf("schedule: unknown request %s", l.id)
		}
	}
	return nil
}

// InstanceLoads returns, for VNF f, the effective total arrival rate Λ_k^f of
// each of its M_f instances (Eq. 7).
func (s *Schedule) InstanceLoads(p *Problem, f VNFID) []float64 {
	t := s.For(p)
	fo, ok := t.ix.VNF(f)
	if !ok {
		return nil
	}
	return t.LoadsInto(fo, nil)
}

// LoadsInto sets dst to Λ_k^f of each instance k of VNF ordinal f (Eq. 7),
// Σ_r (λ_r/P_r)·z_{r,k}^f summed over R_f in request order, reusing dst's
// storage. An entry outside [0, M_f) adds to no instance.
func (s *Schedule) LoadsInto(f int, dst []float64) []float64 {
	p := s.ix.p
	dst = append(dst[:0], make([]float64, p.VNFs[f].Instances)...)
	slots := s.ix.UserSlots(f)
	for i, r := range s.ix.Users(f) {
		if k, ok := s.At(int(slots[i])); ok && k >= 0 && k < len(dst) {
			dst[k] += p.Requests[r].EffectiveRate()
		}
	}
	return dst
}

// walk calls row for each row in request ID order, entry for each of its
// entries in VNF ID order, then end; the order encoding/json writes map
// members in.
func (s *Schedule) walk(row func(r RequestID, null bool), entry func(f VNFID, k int), end func(null bool)) {
	var byReq []int32
	var reqs []Request
	if s.ix != nil {
		byReq, reqs = s.ix.byReq, s.ix.p.Requests
	}
	li := 0
	var buf [16]int32
	for _, o := range byReq {
		id := reqs[o].ID
		for ; li < len(s.loose) && s.loose[li].id < id; li++ {
			s.loose[li].walk(row, entry, end)
		}
		var rest []looseEntry // the row's loose entries, which name no assigned stage
		if li < len(s.loose) && s.loose[li].id == id {
			rest = s.loose[li].entries
			li++
		}
		n := s.row[o]
		if n == rowAbsent {
			continue
		}
		row(id, n == rowNull)
		if n == rowNull {
			end(true)
			continue
		}
		// The assigned stages in VNF ID order, merged with the loose entries.
		lo, _ := s.ix.ChainSlots(int(o))
		chain, ids := s.ix.Chain(int(o)), reqs[o].Chain
		order := buf[:0]
		for j := range chain {
			if s.inst[lo+j] != unassigned {
				order = append(order, int32(j))
			}
		}
		slices.SortFunc(order, func(a, b int32) int {
			if fa, fb := chain[a], chain[b]; fa >= 0 && fb >= 0 {
				return cmp.Compare(s.ix.vnfRank[fa], s.ix.vnfRank[fb])
			}
			return cmp.Compare(ids[a], ids[b]) // a VNF the problem does not define
		})
		for _, j := range order {
			for len(rest) > 0 && rest[0].vnf < ids[j] {
				entry(rest[0].vnf, rest[0].k)
				rest = rest[1:]
			}
			entry(ids[j], int(s.inst[lo+int(j)]))
		}
		for _, e := range rest {
			entry(e.vnf, e.k)
		}
		end(false)
	}
	for ; li < len(s.loose); li++ {
		s.loose[li].walk(row, entry, end)
	}
}

func (l *looseRow) walk(row func(r RequestID, null bool), entry func(f VNFID, k int), end func(null bool)) {
	row(l.id, l.null)
	for _, e := range l.entries {
		entry(e.vnf, e.k)
	}
	end(l.null)
}

// fits reports whether a slot can hold instance k.
func fits(k int) bool { return k == int(int32(k)) && k != unassigned }

// request returns the ordinal of request r in the layout, or −1.
func (s *Schedule) request(r RequestID) int {
	if s.ix == nil {
		return -1
	}
	ri, _ := s.ix.Request(r)
	return ri
}

// slotOf returns the slot of VNF f on request ordinal r's chain, or −1.
func (s *Schedule) slotOf(r int, f VNFID) int {
	lo, _ := s.ix.ChainSlots(r)
	for j, g := range s.ix.p.Requests[r].Chain {
		if g == f {
			return lo + j
		}
	}
	return -1
}

// get returns the entry of VNF f of request id, held at slot (−1 when f is
// not on a chain the layout knows) or apart.
func (s *Schedule) get(id RequestID, slot int, f VNFID) (int, bool) {
	if slot >= 0 && s.inst[slot] != unassigned {
		return int(s.inst[slot]), true
	}
	if l := s.looseOf(id); l != nil {
		if i, ok := l.entryIndex(f); ok {
			return l.entries[i].k, true
		}
	}
	return 0, false
}

// put records the entry (f, k) of request id, whose ordinal is ri (−1 when
// the layout does not know it), at slot (−1 when f is not on its chain) or,
// when the slot cannot hold k, apart. It keeps each row's entry count.
func (s *Schedule) put(ri int, id RequestID, slot int, f VNFID, k int) {
	s.object = true
	if ri >= 0 && s.row[ri] < 0 {
		s.row[ri] = 0
	}
	if slot >= 0 {
		if s.inst[slot] != unassigned {
			s.inst[slot] = unassigned
			s.row[ri]--
		}
		if len(s.loose) > 0 {
			s.dropLoose(ri, id, f)
		}
		if fits(k) {
			s.inst[slot] = int32(k)
			s.row[ri]++
			return
		}
	}
	l := s.looseRow(id)
	l.null = false
	i, ok := l.entryIndex(f)
	if ok {
		l.entries[i].k = k
		return
	}
	l.entries = slices.Insert(l.entries, i, looseEntry{f, k})
	if ri >= 0 {
		s.row[ri]++
	}
}

// openRow starts request id's row (ordinal ri, −1 when unknown) as null or
// as {}.
func (s *Schedule) openRow(ri int, id RequestID, null bool) {
	if ri < 0 {
		s.looseRow(id).null = null
	} else if null {
		s.row[ri] = rowNull
	} else {
		s.row[ri] = 0
	}
}

// looseIndex binary-searches the loose rows for request id.
func (s *Schedule) looseIndex(id RequestID) (int, bool) {
	return slices.BinarySearchFunc(s.loose, id, func(l looseRow, id RequestID) int { return cmp.Compare(l.id, id) })
}

// looseOf returns request id's loose row, or nil.
func (s *Schedule) looseOf(id RequestID) *looseRow {
	if i, ok := s.looseIndex(id); ok {
		return &s.loose[i]
	}
	return nil
}

// looseRow returns request id's loose row, inserting an empty one if there
// is none.
func (s *Schedule) looseRow(id RequestID) *looseRow {
	i, ok := s.looseIndex(id)
	if !ok {
		s.loose = slices.Insert(s.loose, i, looseRow{id: id})
	}
	return &s.loose[i]
}

// entryIndex binary-searches the row's entries for VNF f.
func (l *looseRow) entryIndex(f VNFID) (int, bool) {
	return slices.BinarySearchFunc(l.entries, f, func(e looseEntry, f VNFID) int { return cmp.Compare(e.vnf, f) })
}

// dropLoose deletes the loose entry of f from request id (ordinal ri), if
// any, and the loose row once it is empty.
func (s *Schedule) dropLoose(ri int, id RequestID, f VNFID) {
	li, ok := s.looseIndex(id)
	if !ok {
		return
	}
	l := &s.loose[li]
	if i, ok := l.entryIndex(f); ok {
		l.entries = slices.Delete(l.entries, i, i+1)
		s.row[ri]--
	}
	if len(l.entries) == 0 {
		s.loose = slices.Delete(s.loose, li, li+1)
	}
}

// looseDecoder gathers, while a schedule is decoded, what its rows cannot
// hold. It appends rows and entries in document order and finds duplicates
// by map, so that a document listing its keys in any order decodes in linear
// time; finish sorts the loose rows once.
type looseDecoder struct {
	s       *Schedule
	rows    map[RequestID]int // index of each loose row in s.loose
	entries map[looseKey]struct{}
}

type looseKey struct {
	r RequestID
	f VNFID
}

func (d *looseDecoder) hasRow(id RequestID) bool {
	_, ok := d.rows[id]
	return ok
}

func (d *looseDecoder) hasEntry(id RequestID, f VNFID) bool {
	_, ok := d.entries[looseKey{id, f}]
	return ok
}

// row returns request id's loose row, appending an empty one if there is none.
func (d *looseDecoder) row(id RequestID) *looseRow {
	i, ok := d.rows[id]
	if !ok {
		if d.rows == nil {
			d.rows = make(map[RequestID]int)
		}
		i = len(d.s.loose)
		d.rows[id] = i
		d.s.loose = append(d.s.loose, looseRow{id: id})
	}
	return &d.s.loose[i]
}

// add records the entry (f, k) of request id (ordinal ri, −1 when the index
// does not know it), which its row cannot hold.
func (d *looseDecoder) add(ri int, id RequestID, f VNFID, k int) {
	if d.entries == nil {
		d.entries = make(map[looseKey]struct{})
	}
	d.entries[looseKey{id, f}] = struct{}{}
	l := d.row(id)
	l.entries = append(l.entries, looseEntry{f, k})
	if ri >= 0 {
		d.s.row[ri]++
	}
}

// finish sorts the loose rows by request ID and each one's entries by VNF ID.
func (d *looseDecoder) finish() {
	slices.SortFunc(d.s.loose, func(a, b looseRow) int { return cmp.Compare(a.id, b.id) })
	for _, l := range d.s.loose {
		slices.SortFunc(l.entries, func(a, b looseEntry) int { return cmp.Compare(a.vnf, b.vnf) })
	}
}
