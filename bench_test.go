// Benchmark harness. BenchmarkFigure4 and BenchmarkFigure6 run the
// tracked suites of experiments.Suites (internal/experiments/suites.go),
// the table `isebench -json` measures for the CI allocs/op gate, as
// sub-benchmarks such as BenchmarkFigure4/isegen/seq. The rest measure
// the Figure 7 matcher, the ablations, the simulator check and one bare
// K-L bi-partition; `go run ./cmd/isebench` regenerates the numbers.
package isegen_test

import (
	"context"
	"strings"
	"testing"

	isegen "repro"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/kernels"
)

// benchSuites runs every experiments.Suites entry whose name starts with
// prefix as a sub-benchmark named after the rest of its name.
func benchSuites(b *testing.B, prefix string) {
	for _, s := range experiments.Suites() {
		name, ok := strings.CutPrefix(s.Name, prefix)
		if !ok {
			continue
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := s.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFigure4 runs the Figure 4 suites: ISEGEN, the exact iterative
// and joint baselines, the racing engine and the genetic baseline over
// the seven-kernel suite at I/O (4,2), 4 AFUs.
func BenchmarkFigure4(b *testing.B) { benchSuites(b, "figure4/") }

// BenchmarkFigure6 runs the Figure 6 suites: ISEGEN with reuse and the
// genetic baseline with the same reuse treatment on AES at (4,2), 4 AFUs.
func BenchmarkFigure6(b *testing.B) { benchSuites(b, "figure6/") }

// BenchmarkFigure7Reuse measures the instance matcher on AES: find every
// occurrence of the xtime cut ISEGEN selects under (2,1) — the engine
// behind the Figure 7 reusability counts.
func BenchmarkFigure7Reuse(b *testing.B) {
	app := kernels.AES()
	cfg := isegen.DefaultConfig()
	cfg.MaxIn, cfg.MaxOut, cfg.NISE = 2, 1, 1
	cuts, err := isegen.GenerateCutsOnly(app, cfg)
	if err != nil || len(cuts) == 0 {
		b.Fatalf("no cut: %v", err)
	}
	b.ResetTimer()
	insts := 0
	for i := 0; i < b.N; i++ {
		insts = len(isegen.FindInstances(app, 0, cuts[0].Nodes, 0))
	}
	b.ReportMetric(float64(insts), "instances")
}

// BenchmarkAblationWeights measures the gain-component ablation study
// (design choices of Section 4.2).
func BenchmarkAblationWeights(b *testing.B) {
	o := experiments.DefaultOptions()
	full := 0.0
	for i := 0; i < b.N; i++ {
		rows := experiments.AblationWeights(o)
		full = rows[0].GeoMean
	}
	b.ReportMetric(full, "geomean-speedup")
}

// BenchmarkAblationPasses measures the K-L pass-count study ("5 passes are
// enough", Section 4.1).
func BenchmarkAblationPasses(b *testing.B) {
	o := experiments.DefaultOptions()
	for i := 0; i < b.N; i++ {
		experiments.AblationPasses(o)
	}
}

// BenchmarkSimValidation measures the cycle-level deployment check
// (Section 6 future work): ISEGEN + reuse + simulator on all benchmarks.
func BenchmarkSimValidation(b *testing.B) {
	o := experiments.DefaultOptions()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SimulationValidation(o); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKLBipartitionAES isolates the core contribution: one full K-L
// bi-partition of the 696-node AES block (the workload the exact
// approaches cannot handle).
func BenchmarkKLBipartitionAES(b *testing.B) {
	app := kernels.AES()
	cfg := core.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng, err := core.NewEngine(app.Blocks[0], cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		if eng.Bipartition() == nil {
			b.Fatal("no cut on AES")
		}
	}
}
