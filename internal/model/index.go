package model

import (
	"slices"
	"strings"
)

// Index is the index form of a Problem that the paper's equations sum
// over, laid out once for every layer that scores or runs it. Node, VNF and
// request ordinals are positions in p.Nodes, p.VNFs and p.Requests. All
// chains sit in one flat array of VNF ordinals, one slot per (request,
// stage). R_f, the requests whose chain contains VNF f, is listed in
// problem request order — the order scheduling.ItemsFor walks — each with
// the slot of its visit to f.
//
// Compile assumes a problem that passed Validate; a stage naming an
// undefined VNF gets ordinal −1 and joins no R_f. An Index is read-only once
// built, so goroutines may share it; Rebuild lays it out again in the
// storage it holds. It is not cached on the Problem, because callers mutate
// problems after generating them.
type Index struct {
	p                    *Problem
	byNode, byVNF, byReq []int32 // ordinals sorted by ID, for the lookups
	chainOff             []int32 // request r's slots are [chainOff[r], chainOff[r+1])
	chain                []int32 // per slot: the VNF ordinal of that stage
	usersOff             []int32 // R_f is entries [usersOff[f], usersOff[f+1])
	users, userSlot      []int32 // per R_f entry: the request and its slot
	buf                  []int32 // storage of every slice above
}

// Compile builds the index of p.
func Compile(p *Problem) *Index {
	ix := new(Index)
	ix.Rebuild(p)
	return ix
}

// Rebuild lays the index out for p, reusing its storage when that is large
// enough. No goroutine may read the index meanwhile.
func (ix *Index) Rebuild(p *Problem) {
	nN, nV, nR, slots := len(p.Nodes), len(p.VNFs), len(p.Requests), 0
	for i := range p.Requests {
		slots += len(p.Requests[i].Chain)
	}
	need := nN + 2*nV + 2*nR + 3*slots + 2
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
	ix.byNode = sortedOrdinals(cut(nN), func(i int32) NodeID { return p.Nodes[i].ID })
	ix.byVNF = sortedOrdinals(cut(nV), func(i int32) VNFID { return p.VNFs[i].ID })
	ix.byReq = sortedOrdinals(cut(nR), func(i int32) RequestID { return p.Requests[i].ID })
	ix.chainOff, ix.chain, ix.usersOff = cut(nR+1), cut(slots), cut(nV+1)
	ix.users, ix.userSlot = cut(slots), cut(slots)

	// R_f by counting sort: count |R_f| into usersOff[f+1] while resolving
	// the chains, sum the counts into starts, then append every request to
	// its VNFs' R_f in request order with usersOff[f] as the cursor. That
	// leaves usersOff[f] at the start of f+1, so a shift restores the
	// starts.
	clear(ix.usersOff)
	s := int32(0)
	for r := range p.Requests {
		ix.chainOff[r] = s
		for _, id := range p.Requests[r].Chain {
			f, ok := ix.VNF(id)
			if ok {
				ix.usersOff[f+1]++
			}
			ix.chain[s] = int32(f)
			s++
		}
	}
	ix.chainOff[nR] = s
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

// Node returns the ordinal of node id, or false when p defines none.
func (ix *Index) Node(id NodeID) (int, bool) {
	ns := ix.p.Nodes
	return found(ix.byNode, id, func(o int32) NodeID { return ns[o].ID })
}

// VNF returns the ordinal of VNF id, or false when p defines none.
func (ix *Index) VNF(id VNFID) (int, bool) {
	fs := ix.p.VNFs
	return found(ix.byVNF, id, func(o int32) VNFID { return fs[o].ID })
}

// Request returns the ordinal of request id, or false when p defines none.
func (ix *Index) Request(id RequestID) (int, bool) {
	rs := ix.p.Requests
	return found(ix.byReq, id, func(o int32) RequestID { return rs[o].ID })
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

// sortedOrdinals fills ord with the ordinals 0..len(ord)−1 sorted by ID.
func sortedOrdinals[ID ~string](ord []int32, idOf func(int32) ID) []int32 {
	for i := range ord {
		ord[i] = int32(i)
	}
	slices.SortFunc(ord, func(a, b int32) int { return strings.Compare(string(idOf(a)), string(idOf(b))) })
	return ord
}

// found binary-searches the ordinals sorted by ID for id.
func found[ID ~string](sorted []int32, id ID, idOf func(int32) ID) (int, bool) {
	i, j := 0, len(sorted)
	for i < j {
		if h := int(uint(i+j) >> 1); idOf(sorted[h]) < id {
			i = h + 1
		} else {
			j = h
		}
	}
	if i < len(sorted) && idOf(sorted[i]) == id {
		return int(sorted[i]), true
	}
	return -1, false
}
