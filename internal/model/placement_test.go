package model

import (
	"testing"
)

func testPlacement() *Placement {
	pl := NewPlacement()
	pl.Assign("fw", "n1")  // demand 20
	pl.Assign("nat", "n1") // demand 30
	pl.Assign("ids", "n2") // demand 15
	return pl
}

func TestPlacementAssignAndNode(t *testing.T) {
	pl := NewPlacement()
	pl.Assign("fw", "n1")
	if v, ok := pl.Node("fw"); !ok || v != "n1" {
		t.Errorf("Node(fw) = %v, %v", v, ok)
	}
	pl.Assign("fw", "n2") // reassignment replaces
	if v, _ := pl.Node("fw"); v != "n2" {
		t.Errorf("reassignment failed: %v", v)
	}
	if _, ok := pl.Node("ghost"); ok {
		t.Error("Node(ghost) found")
	}
}

func TestPlacementUsedNodes(t *testing.T) {
	pl := testPlacement()
	used := pl.UsedNodes()
	if len(used) != 2 || used[0] != "n1" || used[1] != "n2" {
		t.Errorf("UsedNodes() = %v, want [n1 n2]", used)
	}
	if pl.NodesInService() != 2 {
		t.Errorf("NodesInService() = %d, want 2", pl.NodesInService())
	}
}

func TestPlacementVNFsOn(t *testing.T) {
	pl := testPlacement()
	got := pl.VNFsOn("n1")
	if len(got) != 2 || got[0] != "fw" || got[1] != "nat" {
		t.Errorf("VNFsOn(n1) = %v", got)
	}
	if got := pl.VNFsOn("n3"); len(got) != 0 {
		t.Errorf("VNFsOn(n3) = %v, want empty", got)
	}
}

func TestPlacementLoadAndResidual(t *testing.T) {
	p := testProblem()
	pl := testPlacement()
	load := pl.Load(p)
	if load["n1"] != 50 {
		t.Errorf("Load(n1) = %v, want 50", load["n1"])
	}
	if load["n2"] != 15 {
		t.Errorf("Load(n2) = %v, want 15", load["n2"])
	}
	rst := pl.Residual(p)
	if rst["n1"] != 50 || rst["n2"] != 35 || rst["n3"] != 200 {
		t.Errorf("Residual() = %v", rst)
	}
}

func TestPlacementValidate(t *testing.T) {
	p := testProblem()
	if err := testPlacement().Validate(p); err != nil {
		t.Fatalf("valid placement rejected: %v", err)
	}

	t.Run("unplaced vnf", func(t *testing.T) {
		pl := NewPlacement()
		pl.Assign("fw", "n1")
		checkErr(t, pl.Validate(p), "unplaced")
	})
	t.Run("unknown vnf", func(t *testing.T) {
		pl := testPlacement()
		pl.Assign("ghost", "n1")
		checkErr(t, pl.Validate(p), "unknown vnf")
	})
	t.Run("unknown node", func(t *testing.T) {
		pl := testPlacement()
		pl.Assign("fw", "nX")
		checkErr(t, pl.Validate(p), "unknown node")
	})
	t.Run("over capacity", func(t *testing.T) {
		pl := NewPlacement()
		pl.Assign("fw", "n2")  // 20
		pl.Assign("nat", "n2") // 30
		pl.Assign("ids", "n2") // 15 → 65 > 50
		checkErr(t, pl.Validate(p), "over capacity")
	})
}

func TestPlacementAverageUtilization(t *testing.T) {
	p := testProblem()
	pl := testPlacement()
	// n1: 50/100 = 0.5; n2: 15/50 = 0.3 → mean 0.4.
	if got := pl.AverageUtilization(p); !almostEqual(got, 0.4, 1e-12) {
		t.Errorf("AverageUtilization() = %v, want 0.4", got)
	}
	if got := NewPlacement().AverageUtilization(p); got != 0 {
		t.Errorf("empty placement utilization = %v, want 0", got)
	}
}

func TestPlacementResourceOccupation(t *testing.T) {
	p := testProblem()
	pl := testPlacement()
	if got := pl.ResourceOccupation(p); got != 150 {
		t.Errorf("ResourceOccupation() = %v, want 150 (n1+n2)", got)
	}
}

func TestPlacementNodeSpan(t *testing.T) {
	p := testProblem()
	pl := testPlacement()
	r3 := p.Requests[2] // chain ids,fw,nat → nodes n2,n1,n1
	if got := pl.NodeSpan(r3); got != 2 {
		t.Errorf("NodeSpan(r3) = %d, want 2", got)
	}
	r2 := p.Requests[1] // chain fw → n1 only
	if got := pl.NodeSpan(r2); got != 1 {
		t.Errorf("NodeSpan(r2) = %d, want 1", got)
	}
}

func TestPlacementClone(t *testing.T) {
	pl := testPlacement()
	cl := pl.Clone()
	cl.Assign("fw", "n3")
	if v, _ := pl.Node("fw"); v != "n1" {
		t.Error("Clone shares map with original")
	}
}

func TestPlacementExtrasLoad(t *testing.T) {
	p := &Problem{
		Nodes: []Node{
			{ID: "n1", Capacity: 100, Extras: []float64{32, 10}},
			{ID: "n2", Capacity: 100, Extras: []float64{32, 10}},
		},
		VNFs: []VNF{
			{ID: "a", Instances: 2, Demand: 10, ServiceRate: 1, Extras: []float64{4, 1}},
			{ID: "b", Instances: 1, Demand: 10, ServiceRate: 1, Extras: []float64{6, 2}},
		},
	}
	pl := NewPlacement()
	pl.Assign("a", "n1")
	pl.Assign("b", "n1")
	load := pl.ExtrasLoad(p)
	if len(load) != 1 {
		t.Fatalf("ExtrasLoad = %v", load)
	}
	// a contributes 2×{4,1}, b contributes 1×{6,2} → {14, 4}.
	if load["n1"][0] != 14 || load["n1"][1] != 4 {
		t.Errorf("n1 extras load = %v, want [14 4]", load["n1"])
	}
	if err := pl.Validate(p); err != nil {
		t.Errorf("valid extras placement rejected: %v", err)
	}

	// Overload dimension 1: 3 more b-like VNFs would exceed 10.
	p.VNFs = append(p.VNFs, VNF{ID: "c", Instances: 4, Demand: 1, ServiceRate: 1, Extras: []float64{1, 2}})
	pl.Assign("c", "n1") // dim1: 4 + 8 = 12 > 10
	if err := pl.Validate(p); err == nil {
		t.Error("extras overload accepted")
	}
}

func TestPlacementExtrasLoadCPUOnly(t *testing.T) {
	p := testProblem()
	pl := testPlacement()
	if got := pl.ExtrasLoad(p); got != nil {
		t.Errorf("CPU-only ExtrasLoad = %v, want nil", got)
	}
}
