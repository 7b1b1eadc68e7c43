package routing

import (
	"errors"
	"strings"
	"testing"

	"nfvchain/internal/model"
	"nfvchain/internal/placement"
	"nfvchain/internal/rng"
	"nfvchain/internal/topology"
	"nfvchain/internal/workload"
)

// clusteredWorld builds two far-apart clusters of nodes and two independent
// chains, each fitting inside one cluster but too big for one node: a
// locality-aware placer should keep each chain inside a single cluster.
func clusteredWorld() (*model.Problem, *topology.Graph) {
	g := topology.New()
	for _, id := range []string{"l0", "l1", "r0", "r1"} {
		g.AddVertex(id, topology.KindCompute)
	}
	// Clusters {l0,l1} and {r0,r1} joined by a long 10-link chain of
	// switches.
	g.MustAddEdge("l0", "l1", topology.DefaultLinkDelay)
	g.MustAddEdge("r0", "r1", topology.DefaultLinkDelay)
	prev := "l1"
	for i := 0; i < 10; i++ {
		sw := "sw" + string(rune('0'+i))
		g.AddVertex(sw, topology.KindSwitch)
		g.MustAddEdge(prev, sw, topology.DefaultLinkDelay)
		prev = sw
	}
	g.MustAddEdge(prev, "r0", topology.DefaultLinkDelay)

	p := &model.Problem{
		Nodes: []model.Node{
			{ID: "l0", Capacity: 100},
			{ID: "l1", Capacity: 100},
			{ID: "r0", Capacity: 100},
			{ID: "r1", Capacity: 100},
		},
		VNFs: []model.VNF{
			{ID: "a1", Instances: 1, Demand: 60, ServiceRate: 100},
			{ID: "a2", Instances: 1, Demand: 60, ServiceRate: 100},
			{ID: "b1", Instances: 1, Demand: 60, ServiceRate: 100},
			{ID: "b2", Instances: 1, Demand: 60, ServiceRate: 100},
		},
		Requests: []model.Request{
			{ID: "ra", Chain: []model.VNFID{"a1", "a2"}, Rate: 1, DeliveryProb: 1},
			{ID: "rb", Chain: []model.VNFID{"b1", "b2"}, Rate: 1, DeliveryProb: 1},
		},
	}
	return p, g
}

func TestTopologyAwareFeasibleAndValid(t *testing.T) {
	p, g := clusteredWorld()
	alg := &TopologyAware{Topo: g, Seed: 1}
	res, err := alg.Place(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Placement.Validate(p); err != nil {
		t.Fatal(err)
	}
	if res.Iterations < len(p.VNFs) {
		t.Errorf("iterations = %d, want >= %d", res.Iterations, len(p.VNFs))
	}
	if alg.Name() != "TA-BFDSU" {
		t.Error("name wrong")
	}
}

// chainDelay is request r's network delay under pl: the sum of the
// minimum link delays between consecutive distinct hosts of its chain (an
// intra-server transition costs nothing).
func chainDelay(t *testing.T, g *topology.Graph, pl *model.Placement, r model.Request) float64 {
	t.Helper()
	var delay float64
	for i := 1; i < len(r.Chain); i++ {
		a, okA := pl.Node(r.Chain[i-1])
		b, okB := pl.Node(r.Chain[i])
		if !okA || !okB {
			t.Fatalf("request %s: chain not fully placed", r.ID)
		}
		if a == b {
			continue
		}
		d, ok := g.DelayDistances(string(a))[string(b)]
		if !ok {
			t.Fatalf("no path between %s and %s", a, b)
		}
		delay += d
	}
	return delay
}

func TestTopologyAwareKeepsChainsLocal(t *testing.T) {
	p, g := clusteredWorld()
	// Aggregate network delay over several seeds: TA-BFDSU should beat
	// plain BFDSU clearly, since crossing the inter-cluster path costs 12
	// links while local placement costs ≤ 1.
	var taTotal, plainTotal float64
	for seed := uint64(0); seed < 10; seed++ {
		ta, err := (&TopologyAware{Topo: g, Seed: seed, LocalityBias: 4}).Place(p)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := (&placement.BFDSU{Seed: seed}).Place(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range p.Requests {
			taTotal += chainDelay(t, g, ta.Placement, r)
			plainTotal += chainDelay(t, g, plain.Placement, r)
		}
	}
	if taTotal >= plainTotal {
		t.Errorf("TA-BFDSU network delay %v not below plain BFDSU %v", taTotal, plainTotal)
	}
}

func TestTopologyAwareOnGeneratedWorkload(t *testing.T) {
	cfg := workload.DefaultConfig()
	cfg.NumRequests = 100
	cfg.NumNodes = 12
	p, err := workload.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Random topology whose compute ids are relabeled to match.
	g, err := topology.RandomConnected(12, 20, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for i := range p.Nodes {
		p.Nodes[i].ID = model.NodeID(g.ComputeVertices()[i])
	}
	res, err := (&TopologyAware{Topo: g, Seed: 5}).Place(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Placement.Validate(p); err != nil {
		t.Fatal(err)
	}
}

func TestTopologyAwareErrors(t *testing.T) {
	p, g := clusteredWorld()

	t.Run("nil topology", func(t *testing.T) {
		if _, err := (&TopologyAware{Seed: 1}).Place(p); err == nil {
			t.Error("nil topology accepted")
		}
	})
	t.Run("node missing from topology", func(t *testing.T) {
		bad := p.Clone()
		bad.Nodes[0].ID = "ghost"
		// Fix chains' validity: requests reference VNFs, not nodes, so the
		// clone stays valid; only the topology lookup must fail.
		if _, err := (&TopologyAware{Topo: g, Seed: 1}).Place(bad); err == nil ||
			!strings.Contains(err.Error(), "not in topology") {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("infeasible", func(t *testing.T) {
		bad := p.Clone()
		for i := range bad.VNFs {
			bad.VNFs[i].Demand = 90 // four 90s into four 100s with pairs impossible
		}
		bad.VNFs[0].Demand = 150
		_, err := (&TopologyAware{Topo: g, Seed: 1}).Place(bad)
		if !errors.Is(err, placement.ErrInfeasible) {
			t.Errorf("err = %v, want ErrInfeasible", err)
		}
	})
}

func TestChainPeers(t *testing.T) {
	p, _ := clusteredWorld()
	peers := chainPeers(p)
	if !peers["a1"]["a2"] || !peers["a2"]["a1"] {
		t.Error("chain peers missing within chain a")
	}
	if peers["a1"]["b1"] {
		t.Error("cross-chain peers invented")
	}
	if peers["a1"]["a1"] {
		t.Error("self peer recorded")
	}
}
