package model

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"nfvchain/internal/rng"
)

// walkValidate is Problem.Validate as an ordered walk over one set per ID
// kind and one set per chain, with the finite-number checks beside each
// ordered guard. It is the oracle of TestValidateMatchesOrderedWalk: of
// several faults it reports the first in problem order, and its error
// texts are the ones Validate must give.
func walkValidate(p *Problem) error {
	if len(p.Nodes) == 0 {
		return errors.New("problem: no nodes")
	}
	if len(p.VNFs) == 0 {
		return errors.New("problem: no vnfs")
	}
	nodeIDs := map[NodeID]bool{}
	for _, n := range p.Nodes {
		if err := walkNode(n); err != nil {
			return err
		}
		if nodeIDs[n.ID] {
			return fmt.Errorf("problem: duplicate node id %s", n.ID)
		}
		nodeIDs[n.ID] = true
	}
	vnfIDs := map[VNFID]bool{}
	for _, f := range p.VNFs {
		if err := walkVNF(f); err != nil {
			return err
		}
		if vnfIDs[f.ID] {
			return fmt.Errorf("problem: duplicate vnf id %s", f.ID)
		}
		vnfIDs[f.ID] = true
	}
	dims := len(p.Nodes[0].Extras)
	for _, n := range p.Nodes {
		if len(n.Extras) != dims {
			return fmt.Errorf("problem: node %s has %d extra resources, want %d", n.ID, len(n.Extras), dims)
		}
	}
	for _, f := range p.VNFs {
		if len(f.Extras) != dims {
			return fmt.Errorf("problem: vnf %s has %d extra resources, want %d", f.ID, len(f.Extras), dims)
		}
	}
	reqIDs := map[RequestID]bool{}
	for _, r := range p.Requests {
		if err := walkRequest(r); err != nil {
			return err
		}
		if reqIDs[r.ID] {
			return fmt.Errorf("problem: duplicate request id %s", r.ID)
		}
		reqIDs[r.ID] = true
		for _, f := range r.Chain {
			if !vnfIDs[f] {
				return fmt.Errorf("problem: request %s references undefined vnf %s", r.ID, f)
			}
		}
	}
	return nil
}

func notFinite(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }

func walkNode(n Node) error {
	switch {
	case n.ID == "":
		return errors.New("node: empty id")
	case n.Capacity <= 0:
		return fmt.Errorf("node %s: capacity %v must be positive", n.ID, n.Capacity)
	case notFinite(n.Capacity):
		return fmt.Errorf("node %s: capacity %v must be finite", n.ID, n.Capacity)
	}
	for i, e := range n.Extras {
		if e <= 0 {
			return fmt.Errorf("node %s: extra capacity %v at dimension %d must be positive", n.ID, e, i)
		}
		if notFinite(e) {
			return fmt.Errorf("node %s: extra capacity %v at dimension %d must be finite", n.ID, e, i)
		}
	}
	return nil
}

func walkVNF(f VNF) error {
	switch {
	case f.ID == "":
		return errors.New("vnf: empty id")
	case f.Instances < 1:
		return fmt.Errorf("vnf %s: instances %d < 1", f.ID, f.Instances)
	case f.Demand < 0:
		return fmt.Errorf("vnf %s: negative demand %v", f.ID, f.Demand)
	case notFinite(f.Demand):
		return fmt.Errorf("vnf %s: demand %v must be finite", f.ID, f.Demand)
	case f.ServiceRate <= 0:
		return fmt.Errorf("vnf %s: service rate %v must be positive", f.ID, f.ServiceRate)
	case notFinite(f.ServiceRate):
		return fmt.Errorf("vnf %s: service rate %v must be finite", f.ID, f.ServiceRate)
	}
	for i, e := range f.Extras {
		if e < 0 {
			return fmt.Errorf("vnf %s: negative extra demand %v at dimension %d", f.ID, e, i)
		}
		if notFinite(e) {
			return fmt.Errorf("vnf %s: extra demand %v at dimension %d must be finite", f.ID, e, i)
		}
	}
	return nil
}

func walkRequest(r Request) error {
	switch {
	case r.ID == "":
		return errors.New("request: empty id")
	case len(r.Chain) == 0:
		return fmt.Errorf("request %s: empty chain", r.ID)
	case r.Rate <= 0:
		return fmt.Errorf("request %s: rate %v must be positive", r.ID, r.Rate)
	case notFinite(r.Rate):
		return fmt.Errorf("request %s: rate %v must be finite", r.ID, r.Rate)
	case r.DeliveryProb <= 0 || r.DeliveryProb > 1 || math.IsNaN(r.DeliveryProb):
		return fmt.Errorf("request %s: delivery probability %v outside (0,1]", r.ID, r.DeliveryProb)
	}
	seen := map[VNFID]bool{}
	for _, f := range r.Chain {
		if f == "" {
			return fmt.Errorf("request %s: empty vnf id in chain", r.ID)
		}
		if seen[f] {
			return fmt.Errorf("request %s: vnf %s appears twice in chain", r.ID, f)
		}
		seen[f] = true
	}
	return nil
}

// randomValidProblem draws a valid problem: up to 6 nodes, 24 VNFs (so a
// chain can outgrow the pairwise repeat scan) and 40 requests whose IDs are
// in ascending order half of the time.
func randomValidProblem(st *rng.Stream) *Problem {
	dims := st.IntN(3)
	extras := func(lo float64) []float64 {
		if dims == 0 {
			return nil
		}
		e := make([]float64, dims)
		for i := range e {
			e[i] = lo + st.Uniform(0, 10)
		}
		return e
	}
	p := &Problem{}
	for _, i := range st.Perm(1 + st.IntN(6)) {
		p.Nodes = append(p.Nodes, Node{ID: NodeID(fmt.Sprintf("n%d", i)), Capacity: st.Uniform(1, 100), Extras: extras(1)})
	}
	for _, i := range st.Perm(1 + st.IntN(24)) {
		p.VNFs = append(p.VNFs, VNF{
			ID:          VNFID(fmt.Sprintf("f%d", i)),
			Instances:   1 + st.IntN(4),
			Demand:      st.Uniform(0, 10),
			ServiceRate: st.Uniform(1, 100),
			Extras:      extras(0),
		})
	}
	nR := st.IntN(40)
	order := st.Perm(nR)
	if st.IntN(2) == 0 {
		for i := range order {
			order[i] = i
		}
	}
	for _, i := range order {
		perm := st.Perm(len(p.VNFs))
		chain := make([]VNFID, 1+st.IntN(len(p.VNFs)))
		for j := range chain {
			chain[j] = p.VNFs[perm[j]].ID
		}
		p.Requests = append(p.Requests, Request{
			ID:           RequestID(fmt.Sprintf("r%03d", i)),
			Chain:        chain,
			Rate:         st.Uniform(0.1, 50),
			DeliveryProb: st.Uniform(0.5, 1),
		})
	}
	return p
}

// injectFault breaks p in one of the ways Validate must name.
func injectFault(st *rng.Stream, p *Problem) {
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1}[st.IntN(5)]
	node := &p.Nodes[st.IntN(len(p.Nodes))]
	vnf := &p.VNFs[st.IntN(len(p.VNFs))]
	var req *Request
	if len(p.Requests) > 0 {
		req = &p.Requests[st.IntN(len(p.Requests))]
	}
	switch st.IntN(20) {
	case 0:
		node.ID = ""
	case 1:
		node.ID = p.Nodes[st.IntN(len(p.Nodes))].ID
	case 2:
		node.Capacity = bad
	case 3:
		if len(node.Extras) > 0 {
			node.Extras[st.IntN(len(node.Extras))] = bad
		}
	case 4:
		node.Extras = append(node.Extras, 1)
	case 5:
		vnf.ID = ""
	case 6:
		vnf.ID = p.VNFs[st.IntN(len(p.VNFs))].ID
	case 7:
		vnf.Instances = st.IntN(3) - 1
	case 8:
		vnf.Demand = bad
	case 9:
		vnf.ServiceRate = bad
	case 10:
		if len(vnf.Extras) > 0 {
			vnf.Extras[st.IntN(len(vnf.Extras))] = bad
		}
	case 11:
		vnf.Extras = vnf.Extras[:0]
	case 12:
		if req != nil {
			req.ID = []RequestID{"", p.Requests[st.IntN(len(p.Requests))].ID}[st.IntN(2)]
		}
	case 13:
		if req != nil {
			req.Rate = bad
		}
	case 14:
		if req != nil {
			req.DeliveryProb = []float64{bad, 1.5, math.Inf(1)}[st.IntN(3)]
		}
	case 15:
		if req != nil && len(req.Chain) > 0 {
			req.Chain[st.IntN(len(req.Chain))] = "undefined"
		}
	case 16:
		if req != nil && len(req.Chain) > 0 {
			req.Chain = append(req.Chain, req.Chain[st.IntN(len(req.Chain))])
		}
	case 17:
		if req != nil {
			req.Chain = [][]VNFID{nil, {""}}[st.IntN(2)]
		}
	case 18:
		p.Nodes = p.Nodes[:0]
	case 19:
		p.VNFs = p.VNFs[:0]
	}
}

// renameAdversarially gives p adversarial IDs (see adversarialID), kept in
// step between the VNFs and the chains. Half of the time every ID gets a
// distinct suffix; otherwise IDs repeat by chance, and one chain stage may
// name an ID no VNF has, often a prefix or an extension of one that does.
func renameAdversarially(st *rng.Stream, p *Problem) {
	unique := st.IntN(2) == 0
	n := 0
	id := func() string {
		if n++; unique {
			return fmt.Sprintf("%s#%d", adversarialID(st), n)
		}
		return adversarialID(st)
	}
	for i := range p.Nodes {
		p.Nodes[i].ID = NodeID(id())
	}
	vnfs := map[VNFID]VNFID{}
	for i := range p.VNFs {
		vnfs[p.VNFs[i].ID] = VNFID(id())
		p.VNFs[i].ID = vnfs[p.VNFs[i].ID]
	}
	for i := range p.Requests {
		r := &p.Requests[i]
		r.ID = RequestID(id())
		for j, f := range r.Chain {
			r.Chain[j] = vnfs[f]
		}
	}
	if !unique && len(p.Requests) > 0 && st.IntN(2) == 0 {
		r := &p.Requests[st.IntN(len(p.Requests))]
		r.Chain[st.IntN(len(r.Chain))] = VNFID(adversarialID(st))
	}
}

// TestValidateMatchesOrderedWalk runs Validate and the ordered-walk oracle
// on random problems with zero to three injected faults of every class,
// then on more with adversarial IDs, repeated ones and chains naming
// undefined VNFs among them: both accept, or both reject with the same
// text.
func TestValidateMatchesOrderedWalk(t *testing.T) {
	st := rng.New(30)
	var accepted, rejected, advAccepted, advRejected int
	for iter := 0; iter < 6000; iter++ {
		p := randomValidProblem(st)
		adversarial := iter >= 4000
		if adversarial {
			renameAdversarially(st, p)
		}
		for k := st.IntN(4); k > 0 && len(p.Nodes) > 0 && len(p.VNFs) > 0; k-- {
			injectFault(st, p)
		}
		want, got := walkValidate(p), p.Validate()
		switch {
		case want == nil && adversarial:
			advAccepted++
		case adversarial:
			advRejected++
		case want == nil:
			accepted++
		default:
			rejected++
		}
		if (want == nil) != (got == nil) || (want != nil && want.Error() != got.Error()) {
			t.Fatalf("case %d: Validate = %v, ordered walk = %v\n%+v", iter, got, want, p)
		}
	}
	if accepted < 500 || rejected < 1500 || advAccepted < 200 || advRejected < 1000 {
		t.Fatalf("accepted %d, rejected %d, adversarial %d/%d: the generator covers too little of one side",
			accepted, rejected, advAccepted, advRejected)
	}
}

// TestValidateRejectsNonFinite names each non-finite field of a paper-sized
// problem; every ordered guard (x <= 0) lets NaN through on its own.
func TestValidateRejectsNonFinite(t *testing.T) {
	cases := []struct {
		name  string
		spoil func(p *Problem)
		want  string
	}{
		{"NaN rate", func(p *Problem) { p.Requests[7].Rate = math.NaN() }, "request r07: rate NaN must be finite"},
		{"+Inf rate", func(p *Problem) { p.Requests[7].Rate = math.Inf(1) }, "request r07: rate +Inf must be finite"},
		{"NaN delivery probability", func(p *Problem) { p.Requests[7].DeliveryProb = math.NaN() }, "request r07: delivery probability NaN outside (0,1]"},
		{"NaN capacity", func(p *Problem) { p.Nodes[1].Capacity = math.NaN() }, "node n2: capacity NaN must be finite"},
		{"+Inf capacity", func(p *Problem) { p.Nodes[1].Capacity = math.Inf(1) }, "node n2: capacity +Inf must be finite"},
		{"NaN service rate", func(p *Problem) { p.VNFs[0].ServiceRate = math.NaN() }, "vnf fw: service rate NaN must be finite"},
		{"NaN demand", func(p *Problem) { p.VNFs[0].Demand = math.NaN() }, "vnf fw: demand NaN must be finite"},
		{"-Inf demand keeps its text", func(p *Problem) { p.VNFs[0].Demand = math.Inf(-1) }, "vnf fw: negative demand -Inf"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := testProblem()
			three := p.Requests
			p.Requests = nil
			for i := 0; i < 20; i++ {
				r := three[i%3]
				r.ID = RequestID(fmt.Sprintf("r%02d", i))
				p.Requests = append(p.Requests, r)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("fixture: %v", err)
			}
			tc.spoil(p)
			err := p.Validate()
			if err == nil || err.Error() != tc.want {
				t.Fatalf("Validate = %v, want %q", err, tc.want)
			}
		})
	}
}

// TestValidateAcceptsSpareInstances pins that Validate does not bound M_f
// by |R_f|: a VNF with more instances than requests using it is valid.
func TestValidateAcceptsSpareInstances(t *testing.T) {
	p := testProblem()
	p.VNFs[2].Instances = 10 // ids serves r3 alone
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate = %v, want nil for M_f > |R_f|", err)
	}
	p.Requests = nil
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate = %v, want nil without requests", err)
	}
}

// TestValidateLongChain covers both repeat checks of Request.Validate: the
// pairwise scan of short chains and the set of long ones.
func TestValidateLongChain(t *testing.T) {
	for _, n := range []int{pairwiseChain, pairwiseChain + 1, 3 * pairwiseChain} {
		r := Request{ID: "r", Rate: 1, DeliveryProb: 1}
		for i := 0; i < n; i++ {
			r.Chain = append(r.Chain, VNFID(fmt.Sprintf("f%d", i)))
		}
		if err := r.Validate(); err != nil {
			t.Fatalf("%d distinct stages: %v", n, err)
		}
		r.Chain = append(r.Chain, r.Chain[n/2])
		if err := r.Validate(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("vnf f%d appears twice", n/2)) {
			t.Fatalf("%d stages with a repeat: %v", n+1, err)
		}
	}
}
