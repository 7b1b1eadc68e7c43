package benchsuite

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkScenarios runs the suite under `go test -bench`, one
// sub-benchmark per scenario: `-bench 'Scenarios/RCKK/n=250$'` selects one.
func BenchmarkScenarios(b *testing.B) {
	for _, sc := range Scenarios() {
		b.Run(sc.Name, func(b *testing.B) {
			b.ReportAllocs()
			sc.Run(b)
		})
	}
}

// TestScenarioNames pins the contract between the suite and the committed
// baseline: scenario names are unique, and every results/BENCH.json row
// names a scenario, so a rename or a duplicate fails here rather than in a
// full benchmark comparison.
func TestScenarioNames(t *testing.T) {
	names := make(map[string]bool)
	for _, sc := range Scenarios() {
		if names[sc.Name] {
			t.Errorf("scenario %q is defined twice", sc.Name)
		}
		names[sc.Name] = true
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "results", "BENCH.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Benchmarks []struct {
			Name string `json:"name"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Benchmarks) == 0 {
		t.Fatal("results/BENCH.json has no rows")
	}
	for _, row := range doc.Benchmarks {
		if !names[row.Name] {
			t.Errorf("results/BENCH.json row %q names no scenario", row.Name)
		}
	}
}
