package topology

import (
	"math"
	"testing"
	"testing/quick"

	"nfvchain/internal/rng"
)

func TestHopDistances(t *testing.T) {
	g := Line(5)
	d := g.HopDistances("c0")
	for i, want := range []int{0, 1, 2, 3, 4} {
		id := computeID(i)
		if d[id] != want {
			t.Errorf("hop(c0,%s) = %d, want %d", id, d[id], want)
		}
	}
	if got := g.HopDistance("c0", "c4"); got != 4 {
		t.Errorf("HopDistance = %d, want 4", got)
	}
	if got := g.HopDistance("c0", "ghost"); got != -1 {
		t.Errorf("HopDistance to missing vertex = %d, want -1", got)
	}
	if len(New().HopDistances("x")) != 0 {
		t.Error("HopDistances from missing source should be empty")
	}
}

func TestHopDistanceDisconnected(t *testing.T) {
	g := Line(2)
	g.AddVertex("island", KindCompute)
	if got := g.HopDistance("c0", "island"); got != -1 {
		t.Errorf("HopDistance disconnected = %d, want -1", got)
	}
}

func TestComputeHopDistance(t *testing.T) {
	g := Star(3) // every pair of compute nodes is 2 physical hops via sw0
	if got := g.ComputeHopDistance("c0", "c1"); got != 1 {
		t.Errorf("ComputeHopDistance via switch = %d, want 1 inter-node transfer", got)
	}
	if got := g.ComputeHopDistance("c0", "c0"); got != 0 {
		t.Errorf("ComputeHopDistance self = %d, want 0", got)
	}
	g.AddVertex("island", KindCompute)
	if got := g.ComputeHopDistance("c0", "island"); got != -1 {
		t.Errorf("ComputeHopDistance disconnected = %d, want -1", got)
	}
}

func TestDelayDistances(t *testing.T) {
	g := New()
	for _, id := range []string{"a", "b", "c"} {
		g.AddVertex(id, KindCompute)
	}
	g.MustAddEdge("a", "b", 10)
	g.MustAddEdge("b", "c", 10)
	g.MustAddEdge("a", "c", 15) // direct shortcut beats 20 via b
	if got := g.DelayDistance("a", "c"); got != 15 {
		t.Errorf("DelayDistance(a,c) = %v, want 15", got)
	}
	if got := g.DelayDistance("a", "b"); got != 10 {
		t.Errorf("DelayDistance(a,b) = %v, want 10", got)
	}
	g.AddVertex("island", KindCompute)
	if got := g.DelayDistance("a", "island"); !math.IsInf(got, 1) {
		t.Errorf("DelayDistance disconnected = %v, want +Inf", got)
	}
}

func TestDijkstraMatchesBFSOnUnitDelays(t *testing.T) {
	s := rng.New(7)
	g, err := RandomConnected(20, 40, s)
	if err != nil {
		t.Fatal(err)
	}
	hops := g.HopDistances("c0")
	delays := g.DelayDistances("c0")
	for id, h := range hops {
		if d := delays[id]; math.Abs(d-float64(h)*DefaultLinkDelay) > 1e-9 {
			t.Errorf("delay(%s) = %v, hop %d: mismatch on unit-delay graph", id, d, h)
		}
	}
}

func TestDiameter(t *testing.T) {
	if got := Line(5).Diameter(); got != 4 {
		t.Errorf("Line(5) diameter = %d, want 4", got)
	}
	if got := Ring(6).Diameter(); got != 3 {
		t.Errorf("Ring(6) diameter = %d, want 3", got)
	}
	if got := New().Diameter(); got != -1 {
		t.Errorf("empty graph diameter = %d, want -1", got)
	}
	g := Line(2)
	g.AddVertex("island", KindCompute)
	if got := g.Diameter(); got != -1 {
		t.Errorf("disconnected diameter = %d, want -1", got)
	}
}

func TestAveragePairDelay(t *testing.T) {
	g := Star(2) // two compute nodes, each DefaultLinkDelay/2 from switch
	want := DefaultLinkDelay
	if got := g.AveragePairDelay(); math.Abs(got-want) > 1e-9 {
		t.Errorf("AveragePairDelay = %v, want %v", got, want)
	}
	if got := Line(1).AveragePairDelay(); got != 0 {
		t.Errorf("single-node AveragePairDelay = %v, want 0", got)
	}
	g2 := Line(2)
	g2.AddVertex("island", KindCompute)
	if got := g2.AveragePairDelay(); got != 0 {
		t.Errorf("disconnected AveragePairDelay = %v, want 0", got)
	}
}

func TestTriangleInequalityOnRandomGraphs(t *testing.T) {
	f := func(seed uint64) bool {
		s := rng.New(seed)
		g, err := RandomConnected(12, 20, s)
		if err != nil {
			return false
		}
		ids := g.ComputeVertices()
		da := g.DelayDistances(ids[0])
		for _, b := range ids {
			db := g.DelayDistances(b)
			for _, c := range ids {
				// d(a,c) <= d(a,b) + d(b,c)
				if da[c] > da[b]+db[c]+1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestPathSymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		g, err := RandomConnected(10, 18, rng.New(seed))
		if err != nil {
			return false
		}
		ids := g.ComputeVertices()
		for i, a := range ids {
			for _, b := range ids[i+1:] {
				if g.HopDistance(a, b) != g.HopDistance(b, a) {
					return false
				}
				if math.Abs(g.DelayDistance(a, b)-g.DelayDistance(b, a)) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
