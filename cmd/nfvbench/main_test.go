package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"nfvchain/internal/benchsuite"
)

// TestCompareBaselineMissingRows pins the gate's handling of a baseline row
// the run did not produce: a filtered run only reports it, an unfiltered run
// fails on it, so a deleted or renamed scenario cannot leave the gate
// unnoticed.
func TestCompareBaselineMissingRows(t *testing.T) {
	row := benchResult{Name: "A", Iterations: 10, NsPerOp: 100, AllocsPerOp: 5, GOMAXPROCS: 1}
	gone := benchResult{Name: "Gone", Iterations: 10, NsPerOp: 100, AllocsPerOp: 5, GOMAXPROCS: 1}
	data, err := json.Marshal(benchFile{Benchmarks: []benchResult{row, gone}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got := []benchResult{row}
	if err := compareBaseline(path, got, 0.15, true); err != nil {
		t.Errorf("filtered run failed on a row it did not select: %v", err)
	}
	err = compareBaseline(path, got, 0.15, false)
	if err == nil || !strings.Contains(err.Error(), "Gone") {
		t.Errorf("unfiltered run with a missing baseline row: err = %v, want a failure naming it", err)
	}
}

// TestCompareBaselineRejectsRepeatedNames pins that a baseline naming one
// scenario twice is refused: keyed by name, the gate would otherwise keep
// only the last row and silently drop the other.
func TestCompareBaselineRejectsRepeatedNames(t *testing.T) {
	row := benchResult{Name: "A", Iterations: 10, NsPerOp: 100, AllocsPerOp: 5, GOMAXPROCS: 1}
	lax := row
	lax.AllocsPerOp = 50
	data, err := json.Marshal(benchFile{Benchmarks: []benchResult{row, lax}})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	err = compareBaseline(path, []benchResult{row}, 0.15, false)
	if err == nil || !strings.Contains(err.Error(), `"A"`) {
		t.Errorf("baseline with a repeated name: err = %v, want a failure naming it", err)
	}
}

// TestMeasureReportsFailingScenario pins that a scenario calling b.Fatal
// fails the run by name, with the go test command that shows its message,
// instead of recording a NaN row the gate would pass.
func TestMeasureReportsFailingScenario(t *testing.T) {
	scs := []benchsuite.Scenario{
		{Name: "Fine/noop", Run: func(b *testing.B) {}},
		{Name: "Broken/fatal", Run: func(b *testing.B) { b.Fatal("fixture broke") }},
	}
	got, err := measure(scs, "")
	if err == nil {
		t.Fatalf("measure = %+v, want an error for Broken/fatal", got)
	}
	want := "go test -run xxx -bench 'Scenarios/Broken/fatal$' ./internal/benchsuite"
	if !strings.Contains(err.Error(), "scenario Broken/fatal failed") || !strings.Contains(err.Error(), want) {
		t.Errorf("err = %v, want it to name Broken/fatal and %q", err, want)
	}
	if got, err := measure(scs, "Fine"); err != nil || len(got) != 1 || got[0].Name != "Fine/noop" {
		t.Errorf("filtered run = %+v, %v; want one Fine/noop row", got, err)
	}
}
