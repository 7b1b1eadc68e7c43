package placement

import (
	"fmt"
	"sort"

	"nfvchain/internal/model"
)

// Exact computes an optimal placement — one minimizing the number of nodes
// in service (the paper's Eq. 14, equivalent to maximizing Eq. 13 under
// uniform capacities) — by branch-and-bound over VNF→node assignments. The
// VNF-CP problem is NP-hard (paper Theorem 1), so Exact is only tractable on
// small instances; it exists to measure the optimality gap of the heuristics
// and to validate Theorem 2's bound SUM(V) ≤ 2·OPT(V) empirically.
type Exact struct {
	// MaxVNFs and MaxNodes bound the accepted instance size (defaults 14/10).
	MaxVNFs, MaxNodes int
	// MaxExpansions caps the search-tree size (default 5e6).
	MaxExpansions int
}

// Defaults for Exact's tractability guards.
const (
	DefaultExactMaxVNFs       = 14
	DefaultExactMaxNodes      = 10
	DefaultExactMaxExpansions = 5_000_000
)

// Name implements Algorithm.
func (e *Exact) Name() string { return "Exact" }

// Place implements Algorithm.
func (e *Exact) Place(p *model.Problem) (*Result, error) { return Run(e, p) }

// PlaceValid implements Algorithm.
func (e *Exact) PlaceValid(p *model.Problem) (*Result, error) {
	if err := Precheck(p); err != nil {
		return nil, err
	}
	maxVNFs, maxNodes, maxExp := e.MaxVNFs, e.MaxNodes, e.MaxExpansions
	if maxVNFs <= 0 {
		maxVNFs = DefaultExactMaxVNFs
	}
	if maxNodes <= 0 {
		maxNodes = DefaultExactMaxNodes
	}
	if maxExp <= 0 {
		maxExp = DefaultExactMaxExpansions
	}
	if len(p.VNFs) > maxVNFs || len(p.Nodes) > maxNodes {
		return nil, fmt.Errorf("placement: exact search limited to %d VNFs × %d nodes, got %d × %d",
			maxVNFs, maxNodes, len(p.VNFs), len(p.Nodes))
	}

	vnfs := p.SortedVNFsByDemand()
	nodes := append([]model.Node(nil), p.Nodes...)
	// Larger nodes first: opening the biggest spare node dominates.
	sort.SliceStable(nodes, func(i, j int) bool {
		if nodes[i].Capacity != nodes[j].Capacity {
			return nodes[i].Capacity > nodes[j].Capacity
		}
		return nodes[i].ID < nodes[j].ID
	})

	s := &exactSearch{
		problem:  p,
		vnfs:     vnfs,
		nodes:    nodes,
		residual: make([]float64, len(nodes)),
		extras:   make([][]float64, len(nodes)),
		assign:   make([]int, len(vnfs)),
		best:     len(nodes) + 1,
		maxExp:   maxExp,
	}
	for i, n := range nodes {
		s.residual[i] = n.Capacity
		s.extras[i] = append([]float64(nil), n.Extras...)
	}
	s.dfs(0, 0)
	if s.bestNodes == nil {
		if s.expansions >= s.maxExp {
			return nil, fmt.Errorf("placement: exact search exceeded %d expansions", s.maxExp)
		}
		return nil, fmt.Errorf("placement: exact search: %w", ErrInfeasible)
	}
	pl := model.NewPlacement()
	for i, nodeID := range s.bestNodes {
		pl.Assign(vnfs[i].ID, nodeID)
	}
	return &Result{Placement: pl, Iterations: s.expansions}, nil
}

type exactSearch struct {
	problem    *model.Problem
	vnfs       []model.VNF
	nodes      []model.Node
	residual   []float64
	extras     [][]float64 // per node, additional-resource residuals
	assign     []int
	best       int
	bestNodes  []model.NodeID // per-VNF host ids of the incumbent solution
	expansions int
	maxExp     int
}

// dfs assigns vnfs[i:] given `used` nodes already opened.
func (s *exactSearch) dfs(i, used int) {
	if s.expansions >= s.maxExp {
		return
	}
	if used >= s.best {
		return // cannot improve
	}
	if i == len(s.vnfs) {
		s.best = used
		// Snapshot host *ids*: node positions are permuted by backtracking
		// swaps after this frame returns, so indexes would go stale.
		s.bestNodes = make([]model.NodeID, len(s.assign))
		for v, idx := range s.assign {
			s.bestNodes[v] = s.nodes[idx].ID
		}
		return
	}
	s.expansions++
	f := s.vnfs[i]
	// Try already-open nodes first (keeps `used` low), then exactly one new
	// node per distinct capacity (symmetry breaking: opening any of several
	// identical spare nodes is equivalent; with extras present, symmetry
	// breaking keys on the full capacity vector via a string key).
	for n := 0; n < used; n++ {
		if s.hostFits(n, f) {
			s.commit(n, f)
			s.assign[i] = n
			s.dfs(i+1, used)
			s.uncommit(n, f)
		}
	}
	if used < len(s.nodes) {
		seen := make(map[string]bool)
		for n := used; n < len(s.nodes); n++ {
			key := capacityKey(s.nodes[n])
			if seen[key] {
				continue
			}
			seen[key] = true
			if !s.hostFits(n, f) {
				continue
			}
			// Swap node n into position `used` so open nodes stay a prefix.
			s.swapNodes(n, used)
			s.commit(used, f)
			s.assign[i] = used
			s.dfs(i+1, used+1)
			s.uncommit(used, f)
			s.swapNodes(n, used)
		}
	}
}

// hostFits checks every resource dimension of node position n against f.
func (s *exactSearch) hostFits(n int, f model.VNF) bool {
	if s.residual[n] < f.TotalDemand()-1e-9 {
		return false
	}
	for dim, e := range f.TotalExtras() {
		if s.extras[n][dim] < e-1e-9 {
			return false
		}
	}
	return true
}

func (s *exactSearch) commit(n int, f model.VNF) {
	s.residual[n] -= f.TotalDemand()
	for dim, e := range f.TotalExtras() {
		s.extras[n][dim] -= e
	}
}

func (s *exactSearch) uncommit(n int, f model.VNF) {
	s.residual[n] += f.TotalDemand()
	for dim, e := range f.TotalExtras() {
		s.extras[n][dim] += e
	}
}

// capacityKey identifies interchangeable spare nodes.
func capacityKey(n model.Node) string {
	key := fmt.Sprintf("%g", n.Capacity)
	for _, e := range n.Extras {
		key += fmt.Sprintf("/%g", e)
	}
	return key
}

func (s *exactSearch) swapNodes(a, b int) {
	if a == b {
		return
	}
	s.nodes[a], s.nodes[b] = s.nodes[b], s.nodes[a]
	s.residual[a], s.residual[b] = s.residual[b], s.residual[a]
	s.extras[a], s.extras[b] = s.extras[b], s.extras[a]
	// Fix assignments referring to swapped positions (only for already
	// assigned VNFs, none of which can reference spare positions ≥ used —
	// but guard anyway for clarity).
	for i := range s.assign {
		switch s.assign[i] {
		case a:
			s.assign[i] = b
		case b:
			s.assign[i] = a
		}
	}
}

var _ Algorithm = (*Exact)(nil)
