// Package topology models the datacenter network G = (V, E) of the paper:
// computing nodes connected through switch nodes. Switches provide
// connectivity but host no VNFs (they are excluded from the placement set V);
// the placement and scheduling layers consume only computing-node capacities
// and inter-node distances/delays from this package.
//
// Besides generic graph construction it provides generators for the
// fat-tree datacenter topology TA-BFDSU runs on and for the line, ring,
// star and random graphs the tests use as fixtures.
package topology

import (
	"fmt"
	"sort"

	"nfvchain/internal/model"
)

// Kind distinguishes computing nodes (which may host VNFs) from switches.
type Kind int

// Vertex kinds. Enums start at one so the zero value is invalid.
const (
	KindCompute Kind = iota + 1
	KindSwitch
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindSwitch:
		return "switch"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Vertex is a network element.
type Vertex struct {
	ID   string
	Kind Kind
}

// Edge is an undirected link with a propagation+transmission delay (the
// paper's per-hop constant L when uniform).
type Edge struct {
	A, B  string
	Delay float64
}

// Graph is an undirected network graph. Construct with New and mutate with
// AddVertex/AddEdge; it is not safe for concurrent mutation.
type Graph struct {
	vertices map[string]Vertex
	adj      map[string]map[string]float64 // neighbor → delay
	order    []string                      // insertion order for determinism
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		vertices: make(map[string]Vertex),
		adj:      make(map[string]map[string]float64),
	}
}

// AddVertex inserts a vertex; adding an existing id updates its kind.
func (g *Graph) AddVertex(id string, kind Kind) {
	if _, ok := g.vertices[id]; !ok {
		g.order = append(g.order, id)
		g.adj[id] = make(map[string]float64)
	}
	g.vertices[id] = Vertex{ID: id, Kind: kind}
}

// AddEdge inserts an undirected edge with the given delay. Both endpoints
// must already exist; self-loops and non-positive delays are rejected.
func (g *Graph) AddEdge(a, b string, delay float64) error {
	if a == b {
		return fmt.Errorf("topology: self-loop on %s", a)
	}
	if delay <= 0 {
		return fmt.Errorf("topology: edge %s-%s delay %v must be positive", a, b, delay)
	}
	if _, ok := g.vertices[a]; !ok {
		return fmt.Errorf("topology: edge endpoint %s undefined", a)
	}
	if _, ok := g.vertices[b]; !ok {
		return fmt.Errorf("topology: edge endpoint %s undefined", b)
	}
	g.adj[a][b] = delay
	g.adj[b][a] = delay
	return nil
}

// MustAddEdge is AddEdge that panics on error, for use in generators whose
// inputs are validated by construction.
func (g *Graph) MustAddEdge(a, b string, delay float64) {
	if err := g.AddEdge(a, b, delay); err != nil {
		panic(err)
	}
}

// HasVertex reports whether id exists.
func (g *Graph) HasVertex(id string) bool {
	_, ok := g.vertices[id]
	return ok
}

// Vertex returns the vertex with the given id.
func (g *Graph) Vertex(id string) (Vertex, bool) {
	v, ok := g.vertices[id]
	return v, ok
}

// NumVertices returns the total vertex count (compute + switch).
func (g *Graph) NumVertices() int { return len(g.vertices) }

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int {
	sum := 0
	for _, nbrs := range g.adj {
		sum += len(nbrs)
	}
	return sum / 2
}

// Vertices returns all vertex ids in insertion order.
func (g *Graph) Vertices() []string {
	return append([]string(nil), g.order...)
}

// ComputeVertices returns the ids of computing nodes in insertion order
// (the paper's set V).
func (g *Graph) ComputeVertices() []string {
	var out []string
	for _, id := range g.order {
		if g.vertices[id].Kind == KindCompute {
			out = append(out, id)
		}
	}
	return out
}

// Neighbors returns the ids adjacent to v, sorted.
func (g *Graph) Neighbors(v string) []string {
	nbrs := g.adj[v]
	out := make([]string, 0, len(nbrs))
	for id := range nbrs {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// EdgeDelay returns the delay of edge (a,b), or false when absent.
func (g *Graph) EdgeDelay(a, b string) (float64, bool) {
	d, ok := g.adj[a][b]
	return d, ok
}

// Edges returns every undirected edge once, sorted for determinism.
func (g *Graph) Edges() []Edge {
	var out []Edge
	for a, nbrs := range g.adj {
		for b, d := range nbrs {
			if a < b {
				out = append(out, Edge{A: a, B: b, Delay: d})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Connected reports whether every vertex is reachable from the first one.
// The empty graph is considered connected.
func (g *Graph) Connected() bool {
	if len(g.order) == 0 {
		return true
	}
	seen := map[string]bool{g.order[0]: true}
	stack := []string{g.order[0]}
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for w := range g.adj[v] {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return len(seen) == len(g.vertices)
}

// ComputeNodes converts the graph's computing vertices into model.Node
// values, assigning each a capacity via the supplied function (called with
// the vertex's index among compute vertices and its id).
func (g *Graph) ComputeNodes(capacity func(i int, id string) float64) []model.Node {
	ids := g.ComputeVertices()
	nodes := make([]model.Node, len(ids))
	for i, id := range ids {
		nodes[i] = model.Node{ID: model.NodeID(id), Name: id, Capacity: capacity(i, id)}
	}
	return nodes
}
