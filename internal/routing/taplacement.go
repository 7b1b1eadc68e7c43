// Package routing makes placement aware of the datacenter topology. The
// paper charges every inter-server chain transition a constant L (Eq. 16)
// and motivates co-location with Fig. 1: a chain served intra-server pays
// no network latency. TopologyAware (TA-BFDSU) turns that motivation into a
// placement objective, trading a little packing tightness for chain
// locality over a topology.Graph.
package routing

import (
	"fmt"
	"sort"

	"nfvchain/internal/model"
	"nfvchain/internal/placement"
	"nfvchain/internal/rng"
	"nfvchain/internal/topology"
)

// TopologyAware is a locality-extended BFDSU: the weighted best-fit draw of
// the paper's Algorithm 1 is multiplied by a chain-locality factor, so a
// candidate node that is network-close to the nodes already hosting the
// VNF's chain peers is preferred among similarly snug fits. It realizes the
// paper's Fig. 1 insight — convert inter-server chains to intra-server
// processing — as an actual placement objective rather than a side effect
// of packing, and is exercised by the locality ablation bench.
type TopologyAware struct {
	// Topo supplies inter-node hop distances; compute vertex ids must match
	// the problem's node ids.
	Topo *topology.Graph
	// Seed drives the weighted draws.
	Seed uint64
	// MaxRestarts bounds the restart loop (0 = placement.DefaultMaxRestarts).
	MaxRestarts int
	// LocalityBias ≥ 0 scales how strongly proximity to chain peers shapes
	// the draw; 0 reduces to plain BFDSU weights. Default 1.
	LocalityBias float64
}

// Name implements placement.Algorithm.
func (t *TopologyAware) Name() string { return "TA-BFDSU" }

// Place implements placement.Algorithm.
func (t *TopologyAware) Place(p *model.Problem) (*placement.Result, error) {
	return placement.Run(t, p)
}

// PlaceValid implements placement.Algorithm.
func (t *TopologyAware) PlaceValid(p *model.Problem) (*placement.Result, error) {
	if err := placement.Precheck(p); err != nil {
		return nil, err
	}
	if t.Topo == nil {
		return nil, fmt.Errorf("routing: TA-BFDSU needs a topology")
	}
	for _, n := range p.Nodes {
		if !t.Topo.HasVertex(string(n.ID)) {
			return nil, fmt.Errorf("routing: node %s not in topology", n.ID)
		}
	}
	maxRestarts := t.MaxRestarts
	if maxRestarts <= 0 {
		maxRestarts = placement.DefaultMaxRestarts
	}
	bias := t.LocalityBias
	if bias == 0 {
		bias = 1
	}

	peers := chainPeers(p)
	hops := t.allPairsHops(p)
	stream := rng.Derive(t.Seed, "ta-bfdsu")
	sorted := p.SortedVNFsByDemand()

	iterations := 0
	for attempt := 1; attempt <= maxRestarts; attempt++ {
		pl, ok := t.onePass(p, sorted, peers, hops, stream, bias, &iterations)
		if ok {
			return &placement.Result{Placement: pl, Iterations: iterations}, nil
		}
	}
	return nil, fmt.Errorf("routing: TA-BFDSU exhausted %d restarts: %w", maxRestarts, placement.ErrInfeasible)
}

// onePass mirrors BFDSU's pass with the locality-weighted draw.
func (t *TopologyAware) onePass(p *model.Problem, sorted []model.VNF,
	peers map[model.VNFID]map[model.VNFID]bool, hops map[model.NodeID]map[model.NodeID]int,
	stream *rng.Stream, bias float64, iterations *int) (*model.Placement, bool) {

	residual := make(map[model.NodeID]float64, len(p.Nodes))
	extras := make(map[model.NodeID][]float64, len(p.Nodes))
	used := make(map[model.NodeID]bool, len(p.Nodes))
	for _, n := range p.Nodes {
		residual[n.ID] = n.Capacity
		extras[n.ID] = append([]float64(nil), n.Extras...)
	}
	pl := model.NewPlacement()

	fits := func(v model.NodeID, f model.VNF) bool {
		if residual[v] < f.TotalDemand()-1e-9 {
			return false
		}
		for dim, e := range f.TotalExtras() {
			if extras[v][dim] < e-1e-9 {
				return false
			}
		}
		return true
	}
	candidatesFrom := func(f model.VNF, fromUsed bool) []model.NodeID {
		var out []model.NodeID
		for _, n := range p.Nodes {
			if used[n.ID] != fromUsed {
				continue
			}
			if fits(n.ID, f) {
				out = append(out, n.ID)
			}
		}
		sort.Slice(out, func(i, j int) bool {
			ri, rj := residual[out[i]], residual[out[j]]
			if ri != rj {
				return ri < rj
			}
			return out[i] < out[j]
		})
		return out
	}

	for _, f := range sorted {
		*iterations++
		demand := f.TotalDemand()
		cands := candidatesFrom(f, true)
		if len(cands) == 0 {
			cands = candidatesFrom(f, false)
		}
		if len(cands) == 0 {
			return nil, false
		}
		weights := make([]float64, len(cands))
		for i, v := range cands {
			fit := 1 / (1 + residual[v] - demand)
			weights[i] = fit * localityFactor(f.ID, v, pl, peers, hops, bias)
		}
		choice := stream.WeightedIndex(weights)
		if choice < 0 {
			return nil, false
		}
		v := cands[choice]
		pl.Assign(f.ID, v)
		residual[v] -= demand
		for dim, e := range f.TotalExtras() {
			extras[v][dim] -= e
		}
		used[v] = true
	}
	return pl, true
}

// localityFactor returns 1/(1 + bias·meanHop) where meanHop averages the
// hop distance from candidate v to the hosts of f's already-placed chain
// peers; 1 when no peer is placed yet.
func localityFactor(f model.VNFID, v model.NodeID, pl *model.Placement,
	peers map[model.VNFID]map[model.VNFID]bool, hops map[model.NodeID]map[model.NodeID]int, bias float64) float64 {
	ps := peers[f]
	if len(ps) == 0 {
		return 1
	}
	var sum float64
	var count int
	for peer := range ps {
		host, ok := pl.Node(peer)
		if !ok {
			continue
		}
		if d, ok := hops[v][host]; ok && d >= 0 {
			sum += float64(d)
			count++
		}
	}
	if count == 0 {
		return 1
	}
	return 1 / (1 + bias*sum/float64(count))
}

// chainPeers maps each VNF to the set of VNFs co-occurring in at least one
// request chain.
func chainPeers(p *model.Problem) map[model.VNFID]map[model.VNFID]bool {
	peers := make(map[model.VNFID]map[model.VNFID]bool, len(p.VNFs))
	for _, r := range p.Requests {
		for _, a := range r.Chain {
			for _, b := range r.Chain {
				if a == b {
					continue
				}
				if peers[a] == nil {
					peers[a] = make(map[model.VNFID]bool)
				}
				peers[a][b] = true
			}
		}
	}
	return peers
}

// allPairsHops precomputes hop distances between all problem nodes.
func (t *TopologyAware) allPairsHops(p *model.Problem) map[model.NodeID]map[model.NodeID]int {
	out := make(map[model.NodeID]map[model.NodeID]int, len(p.Nodes))
	for _, a := range p.Nodes {
		dists := t.Topo.HopDistances(string(a.ID))
		row := make(map[model.NodeID]int, len(p.Nodes))
		for _, b := range p.Nodes {
			if d, ok := dists[string(b.ID)]; ok {
				row[b.ID] = d
			} else {
				row[b.ID] = -1
			}
		}
		out[a.ID] = row
	}
	return out
}

var _ placement.Algorithm = (*TopologyAware)(nil)
