package smartsock_test

// One benchmark per table and figure in the thesis's evaluation
// (regenerating the experiment in Quick mode), plus the probe-size
// sweep DESIGN.md's ablation list cites. Component costs are measured
// by the per-layer probes of benchmark/ and by scripts/bench.sh
// (EXPERIMENTS.md "Number → command").
//
// Run: go test -bench=. -benchmem

import (
	"testing"

	"smartsock/internal/bwest"
	"smartsock/internal/experiments"
	"smartsock/internal/testbed"
)

// benchExperiment regenerates one paper table/figure per iteration.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		table, err := experiments.Run(id, experiments.Options{Quick: true, Seed: int64(i + 1)})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(table.Rows) == 0 {
			b.Fatalf("%s produced no rows", id)
		}
	}
}

func BenchmarkFig33RTTSweep(b *testing.B)       { benchExperiment(b, "fig3.3") }
func BenchmarkFig34RTTSweep(b *testing.B)       { benchExperiment(b, "fig3.4") }
func BenchmarkFig35RTTSweep(b *testing.B)       { benchExperiment(b, "fig3.5") }
func BenchmarkFig36SixPaths(b *testing.B)       { benchExperiment(b, "fig3.6") }
func BenchmarkTable33Bandwidth(b *testing.B)    { benchExperiment(b, "table3.3") }
func BenchmarkTable34NetmonMesh(b *testing.B)   { benchExperiment(b, "table3.4") }
func BenchmarkTable41SuperPI(b *testing.B)      { benchExperiment(b, "table4.1") }
func BenchmarkTable52Resources(b *testing.B)    { benchExperiment(b, "table5.2") }
func BenchmarkFig52MatrixPerHost(b *testing.B)  { benchExperiment(b, "fig5.2") }
func BenchmarkTable53Matrix2v2(b *testing.B)    { benchExperiment(b, "table5.3") }
func BenchmarkTable54Matrix4v4(b *testing.B)    { benchExperiment(b, "table5.4") }
func BenchmarkTable55Matrix6v6(b *testing.B)    { benchExperiment(b, "table5.5") }
func BenchmarkTable56MatrixLoaded(b *testing.B) { benchExperiment(b, "table5.6") }
func BenchmarkFig53ShaperMassd(b *testing.B)    { benchExperiment(b, "fig5.3") }
func BenchmarkTable57Massd1v1(b *testing.B)     { benchExperiment(b, "table5.7") }
func BenchmarkTable58Massd2v2(b *testing.B)     { benchExperiment(b, "table5.8") }
func BenchmarkTable59Massd3v3(b *testing.B)     { benchExperiment(b, "table5.9") }

// --- Ablation: probe-size rules (§3.3.2) as a sweep ---

func BenchmarkEstimatorProbeSizeSweep(b *testing.B) {
	path, err := testbed.CampusPath(1500, 1)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name   string
		s1, s2 int
	}{
		{"subMTU", 100, 500},
		{"mixedFrag", 2000, 6000},
		{"optimal", 1600, 2900},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := bwest.EstimateOnce(path, bwest.StreamConfig{S1: c.s1, S2: c.s2}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
