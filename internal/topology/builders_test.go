package topology

import (
	"testing"

	"nfvchain/internal/rng"
)

func TestLine(t *testing.T) {
	g := Line(4)
	if g.NumVertices() != 4 || g.NumEdges() != 3 {
		t.Errorf("Line(4): %d vertices, %d edges", g.NumVertices(), g.NumEdges())
	}
	if !g.Connected() {
		t.Error("Line(4) disconnected")
	}
	if g.NumVertices() != len(g.ComputeVertices()) {
		t.Error("Line should contain only compute vertices")
	}
	if Line(1).NumEdges() != 0 {
		t.Error("Line(1) should have no edges")
	}
}

func TestRing(t *testing.T) {
	g := Ring(5)
	if g.NumEdges() != 5 {
		t.Errorf("Ring(5) edges = %d, want 5", g.NumEdges())
	}
	for _, v := range g.Vertices() {
		if len(g.Neighbors(v)) != 2 {
			t.Errorf("Ring vertex %s degree %d, want 2", v, len(g.Neighbors(v)))
		}
	}
	// Degenerate rings don't duplicate the line edge.
	if Ring(2).NumEdges() != 1 {
		t.Errorf("Ring(2) edges = %d, want 1", Ring(2).NumEdges())
	}
}

func TestStar(t *testing.T) {
	g := Star(6)
	if len(g.ComputeVertices()) != 6 {
		t.Errorf("Star(6) compute = %d", len(g.ComputeVertices()))
	}
	if g.NumEdges() != 6 {
		t.Errorf("Star(6) edges = %d", g.NumEdges())
	}
	if len(g.Neighbors("sw0")) != 6 {
		t.Error("hub degree wrong")
	}
	if !g.Connected() {
		t.Error("Star disconnected")
	}
}

func TestFatTree(t *testing.T) {
	g, err := FatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(g.ComputeVertices()); got != 16 {
		t.Errorf("FatTree(4) hosts = %d, want k³/4 = 16", got)
	}
	switches := g.NumVertices() - 16
	if switches != 20 { // 4 core + 8 agg + 8 edge
		t.Errorf("FatTree(4) switches = %d, want 20", switches)
	}
	if !g.Connected() {
		t.Error("FatTree(4) disconnected")
	}
	// Any two hosts in the same pod are ≤ 4 physical hops apart; across pods ≤ 6.
	if d := g.HopDistance("c0", "c15"); d > 6 || d < 2 {
		t.Errorf("cross-pod host distance = %d, want within [2,6]", d)
	}

	for _, bad := range []int{0, 1, 3, -2} {
		if _, err := FatTree(bad); err == nil {
			t.Errorf("FatTree(%d) accepted", bad)
		}
	}
}

func TestRandomConnected(t *testing.T) {
	s := rng.New(42)
	g, err := RandomConnected(30, 60, s)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 30 {
		t.Errorf("vertices = %d", g.NumVertices())
	}
	if g.NumEdges() != 60 {
		t.Errorf("edges = %d, want 60", g.NumEdges())
	}
	if !g.Connected() {
		t.Error("RandomConnected produced a disconnected graph")
	}

	// Edge count clamped to complete graph.
	g2, err := RandomConnected(4, 100, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumEdges() != 6 {
		t.Errorf("clamped edges = %d, want 6", g2.NumEdges())
	}

	if _, err := RandomConnected(0, 0, rng.New(1)); err == nil {
		t.Error("RandomConnected(0) accepted")
	}

	// Determinism under identical seeds.
	a, _ := RandomConnected(15, 25, rng.New(9))
	b, _ := RandomConnected(15, 25, rng.New(9))
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatal("seeded graphs differ in size")
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("seeded graphs differ")
		}
	}
}
