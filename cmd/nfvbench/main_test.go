package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
