package model

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"nfvchain/internal/rng"
)

func TestIndexLookups(t *testing.T) {
	p := testProblem()
	ix := Compile(p)
	for i, n := range p.Nodes {
		if got, ok := ix.Node(n.ID); !ok || got != i {
			t.Errorf("Node(%s) = %d, %v, want %d", n.ID, got, ok, i)
		}
	}
	for i, f := range p.VNFs {
		if got, ok := ix.VNF(f.ID); !ok || got != i {
			t.Errorf("VNF(%s) = %d, %v, want %d", f.ID, got, ok, i)
		}
	}
	for i, r := range p.Requests {
		if got, ok := ix.Request(r.ID); !ok || got != i {
			t.Errorf("Request(%s) = %d, %v, want %d", r.ID, got, ok, i)
		}
	}
	if _, ok := ix.Node("nX"); ok {
		t.Error("Node(nX) found")
	}
	if _, ok := ix.VNF("ghost"); ok {
		t.Error("VNF(ghost) found")
	}
	if _, ok := ix.Request("rX"); ok {
		t.Error("Request(rX) found")
	}
}

// TestIndexChains checks the flat chain layout: request r's stages are
// consecutive slots holding VNF ordinals in chain order.
func TestIndexChains(t *testing.T) {
	p := testProblem()
	ix := Compile(p)
	want := [][]int32{{0, 1}, {0}, {2, 0, 1}} // fw=0, nat=1, ids=2
	next := 0
	for r := range p.Requests {
		if got := ix.Chain(r); !slices.Equal(got, want[r]) {
			t.Errorf("Chain(%d) = %v, want %v", r, got, want[r])
		}
		lo, hi := ix.ChainSlots(r)
		if lo != next || hi-lo != len(want[r]) {
			t.Errorf("ChainSlots(%d) = [%d, %d), want [%d, %d)", r, lo, hi, next, next+len(want[r]))
		}
		next = hi
	}
}

// TestIndexUsers checks R_f: the requests using each VNF in problem order
// (the order scheduling.ScheduleAll partitions), each with the slot of its visit.
func TestIndexUsers(t *testing.T) {
	p := testProblem()
	ix := Compile(p)
	for f, vnf := range p.VNFs {
		var want []int32
		for r, req := range p.Requests {
			if req.Uses(vnf.ID) {
				want = append(want, int32(r))
			}
		}
		users := ix.Users(f)
		if !slices.Equal(users, want) {
			t.Errorf("Users(%s) = %v, want %v", vnf.ID, users, want)
		}
		slots := ix.UserSlots(f)
		for i, r := range users {
			lo, hi := ix.ChainSlots(int(r))
			s := int(slots[i])
			if s < lo || s >= hi || ix.Chain(int(r))[s-lo] != int32(f) {
				t.Errorf("UserSlots(%s)[%d] = %d is not request %d's visit", vnf.ID, i, s, r)
			}
		}
	}
	if got := ix.Users(0); len(got) != 3 {
		t.Errorf("Users(fw) = %v, want all 3", got)
	}
	if got := ix.Users(2); !slices.Equal(got, []int32{2}) {
		t.Errorf("Users(ids) = %v, want [r3]", got)
	}
}

// TestIndexRebuild lays a second, different problem out in the first one's
// storage and then rebuilds the first without allocating.
func TestIndexRebuild(t *testing.T) {
	p := testProblem()
	ix := Compile(p)
	q := &Problem{
		Nodes:    []Node{{ID: "m", Capacity: 1}},
		VNFs:     []VNF{{ID: "g", Instances: 1, Demand: 1, ServiceRate: 1}},
		Requests: []Request{{ID: "q", Chain: []VNFID{"g"}, Rate: 1, DeliveryProb: 1}},
	}
	ix.Rebuild(q)
	if f, ok := ix.VNF("g"); !ok || f != 0 {
		t.Errorf("after Rebuild, VNF(g) = %d, %v", f, ok)
	}
	if _, ok := ix.VNF("fw"); ok {
		t.Error("after Rebuild, VNF(fw) still found")
	}
	if got := ix.Users(0); !slices.Equal(got, []int32{0}) {
		t.Errorf("after Rebuild, Users(g) = %v", got)
	}
	if n := testing.AllocsPerRun(100, func() { ix.Rebuild(p) }); n != 0 {
		t.Errorf("Rebuild allocates %v times into storage that fits", n)
	}
	if got := ix.Chain(2); !slices.Equal(got, []int32{2, 0, 1}) {
		t.Errorf("after rebuilding p, Chain(2) = %v", got)
	}
}

// TestIndexUndefinedVNF covers a problem Validate would reject: a chain
// stage naming an undefined VNF gets ordinal −1 and joins no R_f.
func TestIndexUndefinedVNF(t *testing.T) {
	p := testProblem()
	p.Requests[1].Chain = []VNFID{"ghost", "fw"}
	ix := Compile(p)
	if got := ix.Chain(1); !slices.Equal(got, []int32{-1, 0}) {
		t.Errorf("Chain(1) = %v, want [-1 0]", got)
	}
	if got := ix.Users(0); !slices.Equal(got, []int32{0, 1, 2}) {
		t.Errorf("Users(fw) = %v, want [0 1 2]", got)
	}
}

// idParts are the fragments adversarialID joins: shared prefixes, IDs that
// are prefixes of one another, multi-byte and escaped text.
var idParts = []string{"req", "req0", "r", "0", "00", "node", "n", "Firewall", "é", "✓", " ", "<", "&", "\"", "\\", "\x01", "\xff"}

// adversarialID joins one to six fragments, now and then padded with up to
// 29 more bytes, so IDs nest and share prefixes at many lengths.
func adversarialID(st *rng.Stream) string {
	var b strings.Builder
	for k := st.IntN(6); k >= 0; k-- {
		b.WriteString(idParts[st.IntN(len(idParts))])
	}
	if st.IntN(6) == 0 {
		b.WriteString(strings.Repeat("x", st.IntN(30)))
	}
	return b.String()
}

// scan is the oracle of the lookups: the first ordinal whose ID is id.
func scan[T any, ID comparable](items []T, id ID, idOf func(*T) ID) (int, bool) {
	for i := range items {
		if idOf(&items[i]) == id {
			return i, true
		}
	}
	return -1, false
}

// TestIndexLookupsMatchScan compares Node, VNF and Request with a linear
// scan on 200 random problems of up to 1000 requests with adversarial
// (and, some of them, repeated) IDs, for IDs present and absent, in a
// fresh index and after Rebuild into the storage of a larger and of a
// smaller problem.
func TestIndexLookupsMatchScan(t *testing.T) {
	st := rng.New(31)
	random := func(maxReqs int) *Problem {
		p := &Problem{}
		for i := st.IntN(12); i >= 0; i-- {
			p.Nodes = append(p.Nodes, Node{ID: NodeID(adversarialID(st))})
		}
		for i := st.IntN(40); i >= 0; i-- {
			p.VNFs = append(p.VNFs, VNF{ID: VNFID(adversarialID(st))})
		}
		for i := st.IntN(maxReqs + 1); i > 0; i-- {
			chain := []VNFID{p.VNFs[st.IntN(len(p.VNFs))].ID, VNFID(adversarialID(st))}
			p.Requests = append(p.Requests, Request{ID: RequestID(adversarialID(st)), Chain: chain})
		}
		return p
	}
	// sample is every ID of a small problem, 100 drawn from a larger one,
	// and 50 adversarial IDs that are mostly absent.
	sample := func(n int, id func(i int) string) []string {
		var out []string
		for i := 0; i < n; i++ {
			if n <= 100 || st.IntN(n) < 100 {
				out = append(out, id(i))
			}
		}
		for i := 0; i < 50; i++ {
			out = append(out, adversarialID(st))
		}
		return out
	}
	check := func(name string, ix *Index, p *Problem) {
		t.Helper()
		for _, id := range sample(len(p.Nodes), func(i int) string { return string(p.Nodes[i].ID) }) {
			got, ok := ix.Node(NodeID(id))
			want, wok := scan(p.Nodes, NodeID(id), func(n *Node) NodeID { return n.ID })
			if got != want || ok != wok {
				t.Fatalf("%s: Node(%q) = %d, %v; scan %d, %v", name, id, got, ok, want, wok)
			}
		}
		for _, id := range sample(len(p.VNFs), func(i int) string { return string(p.VNFs[i].ID) }) {
			got, ok := ix.VNF(VNFID(id))
			want, wok := scan(p.VNFs, VNFID(id), func(f *VNF) VNFID { return f.ID })
			if got != want || ok != wok {
				t.Fatalf("%s: VNF(%q) = %d, %v; scan %d, %v", name, id, got, ok, want, wok)
			}
		}
		for _, id := range sample(len(p.Requests), func(i int) string { return string(p.Requests[i].ID) }) {
			got, ok := ix.Request(RequestID(id))
			want, wok := scan(p.Requests, RequestID(id), func(r *Request) RequestID { return r.ID })
			if got != want || ok != wok {
				t.Fatalf("%s: Request(%q) = %d, %v; scan %d, %v", name, id, got, ok, want, wok)
			}
		}
	}
	larger, smaller := random(1000), random(0)
	for len(larger.Requests) < 1000 {
		larger = random(1000)
	}
	big, small := Compile(larger), Compile(smaller)
	for iter := 0; iter < 200; iter++ {
		p := random(1000)
		check("Compile", Compile(p), p)
		big.Rebuild(larger)
		big.Rebuild(p)
		check("Rebuild after a larger problem", big, p)
		small.Rebuild(smaller)
		small.Rebuild(p)
		check("Rebuild after a smaller problem", small, p)
	}
}

// sizedProblem is a valid problem of 10 nodes, 15 VNFs and R requests,
// each with a chain of one to six VNFs.
func sizedProblem(st *rng.Stream, requests int) *Problem {
	p := &Problem{}
	for i := 0; i < 10; i++ {
		p.Nodes = append(p.Nodes, Node{ID: NodeID(fmt.Sprintf("node%02d", i)), Capacity: 100})
	}
	for i := 0; i < 15; i++ {
		p.VNFs = append(p.VNFs, VNF{ID: VNFID(fmt.Sprintf("vnf-%d", i)), Instances: 2, Demand: 1, ServiceRate: 50})
	}
	for i := 0; i < requests; i++ {
		chain := make([]VNFID, 1+st.IntN(6))
		for j, f := range st.Perm(15)[:len(chain)] {
			chain[j] = p.VNFs[f].ID
		}
		p.Requests = append(p.Requests, Request{ID: RequestID(fmt.Sprintf("req%04d", i)), Chain: chain, Rate: 1, DeliveryProb: 0.9})
	}
	return p
}

// TestCompileValidAllocationsFlat pins that validating and indexing a
// problem allocates the same number of times at R = 50 and R = 500, and
// that rebuilding into storage that fits allocates nothing.
func TestCompileValidAllocationsFlat(t *testing.T) {
	st := rng.New(32)
	small, large := sizedProblem(st, 50), sizedProblem(st, 500)
	for name, run := range map[string]func(p *Problem){
		"CompileValid": func(p *Problem) {
			if _, err := CompileValid(p); err != nil {
				t.Fatal(err)
			}
		},
		"Validate": func(p *Problem) {
			if err := p.Validate(); err != nil {
				t.Fatal(err)
			}
		},
	} {
		a, b := testing.AllocsPerRun(20, func() { run(small) }), testing.AllocsPerRun(20, func() { run(large) })
		if a != b {
			t.Errorf("%s allocations: %v at R=50, %v at R=500", name, a, b)
		}
	}
	ix := Compile(large)
	for _, p := range []*Problem{small, large} {
		if n := testing.AllocsPerRun(20, func() { ix.Rebuild(p) }); n != 0 {
			t.Errorf("Rebuild of %d requests into storage that fits allocates %v times", len(p.Requests), n)
		}
	}
}
