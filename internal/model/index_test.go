package model

import (
	"slices"
	"testing"
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
