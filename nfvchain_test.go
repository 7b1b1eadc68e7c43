package nfvchain

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestFacadeExportsHaveCallers enforces the façade rule: every exported
// function of nfvchain.go is called as nfvchain.<Name> from non-test code
// under examples/ or cmd/, or from a runnable Example (one with an
// "// Output:" comment) in example_test.go. An export with neither is
// surface nobody exercises, and is deleted rather than kept.
func TestFacadeExportsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "nfvchain.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	called := make(map[string]bool)
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				return err
			}
			facadeSelectors(f, f, called)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	examples, err := parser.ParseFile(fset, "example_test.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	for _, ex := range doc.Examples(examples) {
		if ex.Output != "" || ex.EmptyOutput {
			facadeSelectors(examples, ex.Code, called)
		}
	}
	var uncalled []string
	for _, decl := range facade.Decls {
		fn, ok := decl.(*ast.FuncDecl)
		if ok && fn.Recv == nil && fn.Name.IsExported() && !called[fn.Name.Name] {
			uncalled = append(uncalled, fn.Name.Name)
		}
	}
	if len(uncalled) > 0 {
		slices.Sort(uncalled)
		t.Errorf("façade exports with no caller in examples/, cmd/ or a runnable Example: %s",
			strings.Join(uncalled, ", "))
	}
}

// facadeSelectors records in called every Name of an nfvchain.Name selector
// inside node, where f is the file that imports the nfvchain package.
func facadeSelectors(f *ast.File, node ast.Node, called map[string]bool) {
	pkg := ""
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "nfvchain" {
			pkg = "nfvchain"
			if imp.Name != nil {
				pkg = imp.Name.Name
			}
		}
	}
	if pkg == "" {
		return
	}
	ast.Inspect(node, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == pkg {
				called[sel.Sel.Name] = true
			}
		}
		return true
	})
}

func TestEndToEndFacade(t *testing.T) {
	cfg := DefaultWorkloadConfig()
	cfg.NumRequests = 80
	p, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Optimize(p, Options{Seed: 1, LinkDelay: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := Evaluate(sol)
	if err != nil {
		t.Fatal(err)
	}
	if ev.AvgUtilization <= 0 || ev.NodesInService < 1 {
		t.Errorf("evaluation implausible: %+v", ev)
	}
	res, err := Simulate(sol, SimulationConfig{Horizon: 5, Warmup: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Error("simulation delivered nothing")
	}
}

func TestFacadeConstructors(t *testing.T) {
	placers := []PlacementAlgorithm{
		NewBFDSU(1), NewFFD(), NewBFD(), NewWFD(), NewNAH(), NewExactPlacer(),
	}
	wantPlacers := []string{"BFDSU", "FFD", "BFD", "WFD", "NAH", "Exact"}
	for i, alg := range placers {
		if alg.Name() != wantPlacers[i] {
			t.Errorf("placer %d name = %s, want %s", i, alg.Name(), wantPlacers[i])
		}
	}
	schedulers := []SchedulingAlgorithm{NewRCKK(), NewCGA(), NewExactScheduler()}
	wantScheds := []string{"RCKK", "CGA", "Exact"}
	for i, alg := range schedulers {
		if alg.Name() != wantScheds[i] {
			t.Errorf("scheduler %d name = %s, want %s", i, alg.Name(), wantScheds[i])
		}
	}
}

func TestFacadeCustomAlgorithms(t *testing.T) {
	cfg := DefaultWorkloadConfig()
	cfg.NumRequests = 40
	p, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Optimize(p, Options{Placer: NewFFD(), Scheduler: NewCGA()})
	if err != nil {
		t.Fatal(err)
	}
	if sol.PlacementIterations != 1 {
		t.Errorf("FFD iterations = %d", sol.PlacementIterations)
	}
}

func TestFacadeTraceDriven(t *testing.T) {
	cfg := DefaultWorkloadConfig()
	cfg.NumRequests = 20
	p, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := GenerateTrace(p, 3, 7)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("empty trace")
	}
	sol, err := Optimize(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(sol, SimulationConfig{Horizon: 3, Arrivals: tr.Cursor(), Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Error("trace-driven simulation delivered nothing")
	}
}

func TestFacadeExtensions(t *testing.T) {
	// New scheduler constructors.
	for _, alg := range []SchedulingAlgorithm{NewCKK(), NewRoundRobin()} {
		if alg.Name() == "" {
			t.Error("unnamed scheduler")
		}
	}

	// Topology + TA placer.
	topo, err := NewFatTree(4)
	if err != nil {
		t.Fatal(err)
	}
	if NewTopologyAwarePlacer(topo, 1).Name() != "TA-BFDSU" {
		t.Error("TA placer name wrong")
	}

	// Setup cost constants.
	if SetupCostVM <= SetupCostClickOS {
		t.Error("setup cost constants inverted")
	}

	// Multi-resource annotation.
	cfg := DefaultWorkloadConfig()
	cfg.NumRequests = 30
	p, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := AddMemoryDimension(p, 1); err != nil {
		t.Fatal(err)
	}
	if p.ExtraResources() != 1 {
		t.Error("memory dimension missing")
	}
}

func TestFacadeExperiments(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) != 21 {
		t.Fatalf("ExperimentIDs = %v", ids)
	}
	if DefaultExperimentConfig().SchedulingTrials != 1000 {
		t.Error("default experiment config should match the paper's protocol")
	}
	tab, err := RunExperiment("fig12", ExperimentConfig{Seed: 1, PlacementTrials: 2, SchedulingTrials: 10})
	if err != nil {
		t.Fatal(err)
	}
	if tab.ID != "fig12" || len(tab.Series) == 0 {
		t.Errorf("experiment table implausible: %+v", tab)
	}
	if err := FastExperimentConfig().Validate(); err != nil {
		t.Error(err)
	}
}

func TestFacadePolishAndBounds(t *testing.T) {
	cfg := DefaultWorkloadConfig()
	cfg.NumRequests = 60
	p, err := GenerateWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	scale := 0.5 * p.TotalCapacity() / p.TotalDemand()
	for i := range p.VNFs {
		p.VNFs[i].Demand *= scale
	}
	sol, err := Optimize(p, Options{Placer: NewWFD()})
	if err != nil {
		t.Fatal(err)
	}
	lb := PlacementLowerBound(p)
	if lb < 1 {
		t.Errorf("lower bound = %d", lb)
	}
	better, err := ImprovePlacement(p, sol.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if better.NodesInService() > sol.Placement.NodesInService() {
		t.Error("ImprovePlacement worsened node count")
	}
	if better.NodesInService() < lb {
		t.Errorf("polished placement %d beats the lower bound %d", better.NodesInService(), lb)
	}
	sched, err := ImproveSchedule(p, sol.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.Validate(p); err != nil {
		t.Fatal(err)
	}
}
