package experiments

import (
	"context"
	"fmt"
	"io"

	"repro/internal/eval"
	"repro/internal/kernels"
)

// AreaRow reports the speedup attainable on a benchmark under one total
// AFU area budget (NAND2-equivalent gates).
type AreaRow struct {
	Benchmark string
	Budget    float64 // 0 = unlimited
	Speedup   float64
	UsedArea  float64
	NumAFUs   int
}

// AreaStudy is the extension experiment motivated by the paper's related
// work (AFU silicon is not free): generate a generous pool of candidate
// ISEs (NISE = 8) with full reuse, then select the subset maximizing
// savings under each area budget via 0/1 knapsack, and report the
// resulting speedups. Reusable cuts shine here: one AFU datapath pays its
// area once and earns savings at every instance.
func AreaStudy(o Options, budgets []float64) ([]AreaRow, error) {
	var rows []AreaRow
	specs := kernels.All()
	specs = append(specs, kernels.Spec{Name: "aes", App: kernels.AES(), CriticalSize: 696})
	for _, spec := range specs {
		oo := o
		oo.NISE = 8 // generous candidate pool for the knapsack
		sels, err := selectionsWithReuse(context.Background(), spec.App, oo, nil)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", spec.Name, err)
		}
		for _, budget := range budgets {
			picked := eval.SelectUnderAreaBudget(spec.App, o.Model, sels, budget)
			rep, err := eval.Evaluate(spec.App, o.Model, picked)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", spec.Name, err)
			}
			rows = append(rows, AreaRow{
				Benchmark: spec.Name,
				Budget:    budget,
				Speedup:   rep.Speedup,
				UsedArea:  eval.TotalAFUArea(o.Model, picked),
				NumAFUs:   len(picked),
			})
		}
	}
	return rows, nil
}

// DefaultAreaBudgets is the sweep used by cmd/isebench.
var DefaultAreaBudgets = []float64{1000, 4000, 16000, 64000, 0}

// PrintAreaStudy renders the area sweep.
func PrintAreaStudy(w io.Writer, rows []AreaRow) {
	fmt.Fprintf(w, "Extension: speedup under AFU area budgets (NAND2-eq gates; 0 = unlimited)\n")
	fmt.Fprintf(w, "%-16s %10s %8s %6s %10s\n", "benchmark", "budget", "speedup", "AFUs", "used-area")
	last := ""
	for _, r := range rows {
		name := r.Benchmark
		if name == last {
			name = ""
		} else {
			last = r.Benchmark
		}
		budget := fmt.Sprintf("%.0f", r.Budget)
		if r.Budget == 0 {
			budget = "unlim"
		}
		fmt.Fprintf(w, "%-16s %10s %8.3f %6d %10.0f\n", name, budget, r.Speedup, r.NumAFUs, r.UsedArea)
	}
}
