package nfvchain

// Figure benchmarks: one BenchmarkFigNN per evaluation figure of the paper.
// Each iteration regenerates that figure's full sweep at reduced averaging;
// run `go run ./cmd/nfvsim -fig all` for the paper-protocol curves. The
// micro-benchmarks of the algorithms, the simulator and the codecs live in
// internal/benchsuite, which both `go test -bench` and cmd/nfvbench run.

import (
	"testing"

	"nfvchain/internal/experiment"
)

// benchConfig keeps per-iteration cost manageable; shapes (who wins, by
// what factor) are preserved, only curve smoothness is reduced.
func benchConfig() experiment.Config {
	return experiment.Config{Seed: 1, PlacementTrials: 3, SchedulingTrials: 20}
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab, err := experiment.Run(id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tab.Series) == 0 {
			b.Fatalf("%s produced no series", id)
		}
	}
}

// One benchmark per paper figure (Figs. 5–16 and the p99 tail statistics).

func BenchmarkFig05Utilization(b *testing.B)        { benchFigure(b, "fig5") }
func BenchmarkFig06UtilizationScale(b *testing.B)   { benchFigure(b, "fig6") }
func BenchmarkFig07UtilizationNodes(b *testing.B)   { benchFigure(b, "fig7") }
func BenchmarkFig08NodesInService(b *testing.B)     { benchFigure(b, "fig8") }
func BenchmarkFig09ResourceOccupation(b *testing.B) { benchFigure(b, "fig9") }
func BenchmarkFig10Iterations(b *testing.B)         { benchFigure(b, "fig10") }
func BenchmarkFig11ResponseP098(b *testing.B)       { benchFigure(b, "fig11") }
func BenchmarkFig12ResponseP100(b *testing.B)       { benchFigure(b, "fig12") }
func BenchmarkFig13ResponseInstances098(b *testing.B) {
	benchFigure(b, "fig13")
}
func BenchmarkFig14ResponseInstances100(b *testing.B) {
	benchFigure(b, "fig14")
}
func BenchmarkFig15RejectionLowLoss(b *testing.B)  { benchFigure(b, "fig15") }
func BenchmarkFig16RejectionHighLoss(b *testing.B) { benchFigure(b, "fig16") }
func BenchmarkFigTailP99(b *testing.B)             { benchFigure(b, "tail") }

// Extension experiments.

func BenchmarkFigAblationPlacement(b *testing.B)  { benchFigure(b, "ablation-placement") }
func BenchmarkFigAblationScheduling(b *testing.B) { benchFigure(b, "ablation-scheduling") }
func BenchmarkFigRobustness(b *testing.B)         { benchFigure(b, "robustness") }
