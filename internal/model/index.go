package model

import (
	"errors"
	"fmt"
	"hash/maphash"
	"math/bits"
	"slices"
	"strings"
)

// Index is the index form of a Problem that the paper's equations sum
// over, laid out once for every layer that scores or runs it. Node, VNF and
// request ordinals are positions in p.Nodes, p.VNFs and p.Requests. All
// chains sit in one flat array of VNF ordinals, one slot per (request,
// stage). R_f, the requests whose chain contains VNF f, is listed in
// problem request order — the order scheduling.ScheduleAll partitions —
// each with the slot of its visit to f.
//
// IDs resolve through open-addressing hash tables of ordinals. The build
// walks the problem once, in order, and checks every rule of
// Problem.Validate on the way: a repeated ID shows on insert, an undefined
// chain VNF on lookup. Compile indexes any problem and keeps the first
// fault (Fault): an ID defined twice resolves to its first ordinal, and a
// stage naming an undefined VNF gets ordinal −1 and joins no R_f. An Index
// is read-only once built, so goroutines may share it; Rebuild lays it out
// again in the storage it holds. It is not cached on the Problem, because
// callers mutate problems after generating them.
type Index struct {
	p                       *Problem
	nodeTab, vnfTab, reqTab []int32 // hash tables: an ordinal plus one, or 0 for empty
	byVNF, byReq            []int32 // ordinals sorted by ID, the order the encoders write
	vnfRank                 []int32 // per VNF: its position in byVNF
	chainOff                []int32 // request r's slots are [chainOff[r], chainOff[r+1])
	chain                   []int32 // per slot: the VNF ordinal of that stage
	usersOff                []int32 // R_f is entries [usersOff[f], usersOff[f+1])
	users, userSlot         []int32 // per R_f entry: the request and its slot
	buf                     []int32 // storage of every slice above
	fault                   error   // what Validate returns for p
}

// Compile builds the index of p, whether or not p is valid.
func Compile(p *Problem) *Index {
	ix := new(Index)
	ix.Rebuild(p)
	return ix
}

// CompileValid builds the index of p, or returns the error Validate
// returns and no index.
func CompileValid(p *Problem) (*Index, error) {
	ix := new(Index)
	if err := ix.Rebuild(p); err != nil {
		return nil, err
	}
	return ix, nil
}

// Rebuild lays the index out for p, reusing its storage when that is large
// enough, and returns the error Validate returns. No goroutine may read the
// index meanwhile.
func (ix *Index) Rebuild(p *Problem) error {
	ix.fault = ix.resolve(p)
	ix.layout()
	return ix.fault
}

// Fault returns the error Validate returns for the problem the index was
// built for, nil when that problem is valid.
func (ix *Index) Fault() error { return ix.fault }

// resolve sizes the index for p, fills its hash tables and resolves every
// chain stage to its VNF ordinal, counting |R_f| into usersOff[f+1]. On the
// way it checks the rules of Validate in problem order and keeps the first
// fault, which it returns; Validate stops here.
func (ix *Index) resolve(p *Problem) error {
	nN, nV, nR, slots := len(p.Nodes), len(p.VNFs), len(p.Requests), 0
	for i := range p.Requests {
		slots += len(p.Requests[i].Chain)
	}
	tN, tV, tR := tableLen(nN), tableLen(nV), tableLen(nR)
	need := tN + tV + tR + 3*nV + 2*nR + 3*slots + 2
	if cap(ix.buf) < need {
		ix.buf = make([]int32, need)
	}
	buf := ix.buf[:need]
	cut := func(n int) []int32 {
		s := buf[:n:n]
		buf = buf[n:]
		return s
	}
	ix.p = p
	ix.nodeTab, ix.vnfTab, ix.reqTab = cut(tN), cut(tV), cut(tR)
	clear(ix.buf[:tN+tV+tR])
	ix.byVNF, ix.byReq, ix.vnfRank = cut(nV), cut(nR), cut(nV)
	ix.chainOff, ix.chain, ix.usersOff = cut(nR+1), cut(slots), cut(nV+1)
	ix.users, ix.userSlot = cut(slots), cut(slots)

	var fault error
	if nN == 0 {
		fault = errors.New("problem: no nodes")
	} else if nV == 0 {
		fault = errors.New("problem: no vnfs")
	}
	for i := range p.Nodes {
		fault = add(fault, ix.nodeTab, p.Nodes, i, nodeID, "node")
	}
	for i := range p.VNFs {
		fault = add(fault, ix.vnfTab, p.VNFs, i, vnfID, "vnf")
	}
	// Extra-resource dimensionality must be uniform across nodes and VNFs.
	for i := 0; fault == nil && i < nN; i++ {
		if n := &p.Nodes[i]; len(n.Extras) != len(p.Nodes[0].Extras) {
			fault = fmt.Errorf("problem: node %s has %d extra resources, want %d", n.ID, len(n.Extras), len(p.Nodes[0].Extras))
		}
	}
	for i := 0; fault == nil && i < nV; i++ {
		if f := &p.VNFs[i]; len(f.Extras) != len(p.Nodes[0].Extras) {
			fault = fmt.Errorf("problem: vnf %s has %d extra resources, want %d", f.ID, len(f.Extras), len(p.Nodes[0].Extras))
		}
	}
	clear(ix.usersOff)
	s := int32(0)
	for r := range p.Requests {
		q := &p.Requests[r]
		fault = add(fault, ix.reqTab, p.Requests, r, reqID, "request")
		ix.chainOff[r] = s
		for _, id := range q.Chain {
			f := ix.vnfTab[probe(ix.vnfTab, p.VNFs, id, vnfID)] - 1
			if f >= 0 {
				ix.usersOff[f+1]++
			} else if fault == nil {
				fault = fmt.Errorf("problem: request %s references undefined vnf %s", q.ID, id)
			}
			ix.chain[s] = f
			s++
		}
	}
	ix.chainOff[nR] = s
	return fault
}

// layout sorts the ID orders and lists R_f from the counts resolve left,
// by counting sort: sum the counts into starts, then append every request
// to its VNFs' R_f in request order with usersOff[f] as the cursor. That
// leaves usersOff[f] at the start of f+1, so a shift restores the starts.
func (ix *Index) layout() {
	p, nV := ix.p, len(ix.p.VNFs)
	sortedOrdinals(ix.byVNF, p.VNFs, vnfID)
	sortedOrdinals(ix.byReq, p.Requests, reqID)
	for i, f := range ix.byVNF {
		ix.vnfRank[f] = int32(i)
	}
	for f := 1; f <= nV; f++ {
		ix.usersOff[f] += ix.usersOff[f-1]
	}
	for r := range p.Requests {
		for s := ix.chainOff[r]; s < ix.chainOff[r+1]; s++ {
			if f := ix.chain[s]; f >= 0 {
				ix.users[ix.usersOff[f]], ix.userSlot[ix.usersOff[f]] = int32(r), s
				ix.usersOff[f]++
			}
		}
	}
	copy(ix.usersOff[1:], ix.usersOff[:nV])
	ix.usersOff[0] = 0
	ix.users, ix.userSlot = ix.users[:ix.usersOff[nV]], ix.userSlot[:ix.usersOff[nV]]
}

// Problem returns the problem the index was built for.
func (ix *Index) Problem() *Problem { return ix.p }

// Node returns the ordinal of node id, or false when p defines none.
func (ix *Index) Node(id NodeID) (int, bool) {
	return ordinalAt(ix.nodeTab, probe(ix.nodeTab, ix.p.Nodes, id, nodeID))
}

// VNF returns the ordinal of VNF id, or false when p defines none.
func (ix *Index) VNF(id VNFID) (int, bool) {
	return ordinalAt(ix.vnfTab, probe(ix.vnfTab, ix.p.VNFs, id, vnfID))
}

// Request returns the ordinal of request id, or false when p defines none.
func (ix *Index) Request(id RequestID) (int, bool) {
	return ordinalAt(ix.reqTab, probe(ix.reqTab, ix.p.Requests, id, reqID))
}

func nodeID(n *Node) NodeID      { return n.ID }
func vnfID(f *VNF) VNFID         { return f.ID }
func reqID(r *Request) RequestID { return r.ID }

// probe returns the position of id in tab, the hash table of the IDs of
// items, or of the empty entry where it would go, probing linearly from
// its hash. An entry is an ordinal plus one, 0 when empty.
func probe[T any, ID ~string](tab []int32, items []T, id ID, idOf func(*T) ID) int {
	mask := uint(len(tab) - 1)
	h := uint(maphash.String(idSeed, string(id))) & mask
	for tab[h] != 0 && idOf(&items[tab[h]-1]) != id {
		h = (h + 1) & mask
	}
	return int(h)
}

// ordinalAt returns the ordinal at position h of tab, where a probe ended.
func ordinalAt(tab []int32, h int) (int, bool) { return int(tab[h]) - 1, tab[h] != 0 }

// add inserts ordinal i into tab, the hash table of the IDs of items,
// unless its ID is there already, and returns fault or, when that is nil,
// the first fault of items[i]: its own, then a repeated ID.
func add[T interface{ Validate() error }, ID ~string](fault error, tab []int32, items []T, i int, idOf func(*T) ID, kind string) error {
	h := probe(tab, items, idOf(&items[i]), idOf)
	fresh := tab[h] == 0
	if fresh {
		tab[h] = int32(i + 1)
	}
	if fault == nil {
		if fault = items[i].Validate(); fault == nil && !fresh {
			fault = fmt.Errorf("problem: duplicate %s id %s", kind, idOf(&items[i]))
		}
	}
	return fault
}

// Slots returns the number of chain slots, Σ_r |chain(r)|.
func (ix *Index) Slots() int { return len(ix.chain) }

// ChainSlots returns the slots [lo, hi) of request r's chain, stage j at
// slot lo+j.
func (ix *Index) ChainSlots(r int) (lo, hi int) { return int(ix.chainOff[r]), int(ix.chainOff[r+1]) }

// Chain returns the VNF ordinals of request r's chain, in chain order.
func (ix *Index) Chain(r int) []int32 { return ix.chain[ix.chainOff[r]:ix.chainOff[r+1]] }

// Users returns R_f, the ordinals of the requests using VNF f, in request
// order.
func (ix *Index) Users(f int) []int32 { return ix.users[ix.usersOff[f]:ix.usersOff[f+1]] }

// UserSlots returns, aligned with Users(f), the slot of each visit to f.
func (ix *Index) UserSlots(f int) []int32 { return ix.userSlot[ix.usersOff[f]:ix.usersOff[f+1]] }

// sortedOrdinals fills ord with the ordinals of items sorted by ID,
// sorting only when the IDs are out of order.
func sortedOrdinals[T any, ID ~string](ord []int32, items []T, idOf func(*T) ID) {
	inOrder := true
	for i := range ord {
		ord[i] = int32(i)
		inOrder = inOrder && (i == 0 || idOf(&items[i-1]) < idOf(&items[i]))
	}
	if !inOrder {
		slices.SortFunc(ord, func(a, b int32) int { return strings.Compare(string(idOf(&items[a])), string(idOf(&items[b]))) })
	}
}

// idSeed keys the ID hash. Lookups only probe the tables and never
// iterate them, so no output depends on it.
var idSeed = maphash.MakeSeed()

// tableLen is the size of the hash table of n IDs: a power of two above
// 2n, so at most half of it is full and every probe meets an empty entry.
func tableLen(n int) int { return 1 << bits.Len(uint(2*n)) }
