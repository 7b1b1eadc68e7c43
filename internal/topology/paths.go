package topology

import (
	"container/heap"
	"math"
)

// HopDistances returns the minimum hop count from src to every reachable
// vertex (BFS). Unreachable vertices are absent from the map.
func (g *Graph) HopDistances(src string) map[string]int {
	dist := make(map[string]int)
	if !g.HasVertex(src) {
		return dist
	}
	dist[src] = 0
	queue := []string{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, w := range g.Neighbors(v) {
			if _, seen := dist[w]; !seen {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return dist
}

// HopDistance returns the minimum hop count between a and b, or -1 when
// disconnected.
func (g *Graph) HopDistance(a, b string) int {
	d, ok := g.HopDistances(a)[b]
	if !ok {
		return -1
	}
	return d
}

// ComputeHopDistance returns the hop count between two computing nodes
// counted in *computing-node hops*: switches along the way are free, so a
// path compute→switch→switch→compute is one hop. This matches the paper's
// Eq. 16 where traversing from one used node to the next costs one L. It
// returns -1 when disconnected.
func (g *Graph) ComputeHopDistance(a, b string) int {
	if a == b {
		return 0
	}
	d := g.HopDistance(a, b)
	if d < 0 {
		return -1
	}
	return 1 // adjacent in the compute overlay: one inter-node transfer
}

// priorityQueue implements heap.Interface for Dijkstra.
type pqItem struct {
	id   string
	dist float64
}

type priorityQueue []pqItem

func (q priorityQueue) Len() int            { return len(q) }
func (q priorityQueue) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q priorityQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *priorityQueue) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *priorityQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// DelayDistances returns the minimum total link delay from src to every
// reachable vertex (Dijkstra).
func (g *Graph) DelayDistances(src string) map[string]float64 {
	dist := make(map[string]float64)
	if !g.HasVertex(src) {
		return dist
	}
	done := make(map[string]bool)
	dist[src] = 0
	pq := &priorityQueue{{id: src, dist: 0}}
	for pq.Len() > 0 {
		it := heap.Pop(pq).(pqItem)
		if done[it.id] {
			continue
		}
		done[it.id] = true
		for w, d := range g.adj[it.id] {
			nd := it.dist + d
			if cur, seen := dist[w]; !seen || nd < cur {
				dist[w] = nd
				heap.Push(pq, pqItem{id: w, dist: nd})
			}
		}
	}
	return dist
}

// DelayDistance returns the minimum total delay between a and b, or +Inf
// when disconnected.
func (g *Graph) DelayDistance(a, b string) float64 {
	d, ok := g.DelayDistances(a)[b]
	if !ok {
		return math.Inf(1)
	}
	return d
}

// Diameter returns the maximum finite hop distance over all vertex pairs,
// or -1 when the graph is disconnected or empty.
func (g *Graph) Diameter() int {
	if len(g.order) == 0 || !g.Connected() {
		return -1
	}
	maxD := 0
	for _, v := range g.order {
		for _, d := range g.HopDistances(v) {
			if d > maxD {
				maxD = d
			}
		}
	}
	return maxD
}

// AveragePairDelay returns the mean shortest-path delay over all unordered
// pairs of *computing* vertices — a natural calibration for the paper's
// constant inter-node latency L. It returns 0 when fewer than two computing
// vertices exist or they are disconnected.
func (g *Graph) AveragePairDelay() float64 {
	ids := g.ComputeVertices()
	if len(ids) < 2 {
		return 0
	}
	var sum float64
	var count int
	for i, a := range ids {
		dd := g.DelayDistances(a)
		for _, b := range ids[i+1:] {
			d, ok := dd[b]
			if !ok {
				return 0
			}
			sum += d
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
