package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/eval"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/search"
	"repro/internal/sim"
)

// generateWithReuse runs the full ISEGEN flow (unified driver + reuse
// claiming) and returns the evaluation report. A non-nil cache shares cut
// costings across calls on the same blocks (e.g. the Figure 6/7 sweeps).
func generateWithReuse(ctx context.Context, app *ir.Application, o Options, cache *search.CostCache) (*eval.Report, error) {
	sels, err := selectionsWithReuse(ctx, app, o, cache)
	if err != nil {
		return nil, err
	}
	return eval.Evaluate(app, o.Model, sels)
}

// selectionsWithReuse is the shared ISEGEN-with-reuse pipeline:
// search.Runner.Select under the default reuse-aware objective, claiming
// every isomorphic instance of each selected cut.
func selectionsWithReuse(ctx context.Context, app *ir.Application, o Options, cache *search.CostCache) ([]eval.Selection, error) {
	r := &search.Runner{Workers: o.Workers, Cache: cache}
	sels, _, err := r.Select(ctx, app, o.isegenConfig(), "", search.ObjectiveParams{}, true)
	return sels, err
}

// geneticWithReuse is the genetic side of a Figure 6 point: the DAC'04
// baseline's cuts on the application's first block, with every isomorphic
// instance claimed exactly as ISEGEN's are.
func geneticWithReuse(ctx context.Context, app *ir.Application, o Options, cache *search.CostCache) (*eval.Report, error) {
	ga := &search.Genetic{Seed: o.GASeed, Cache: cache}
	cuts, _, err := ga.RunContext(ctx, app.Blocks[0], search.Merit(o.Model), o.limits(0))
	if err != nil {
		return nil, err
	}
	sels := eval.ClaimAllWithReuse(app, cuts, func(*core.Cut) int { return 0 })
	return eval.Evaluate(app, o.Model, sels)
}

// generateWithReuseRestarts is the restart-ablation pipeline: cuts are
// selected by merit only (no reuse-aware scoring), isolating the K-L
// search quality that the dispersed restarts exist to improve; reuse
// instances are still claimed for evaluation.
func generateWithReuseRestarts(app *ir.Application, o Options, restarts int, cache *search.CostCache) (*eval.Report, error) {
	cfg := o.isegenConfig()
	cfg.Restarts = restarts
	r := &search.Runner{Workers: cfg.Workers, Cache: cache}
	sels, _, err := r.Select(context.Background(), app, cfg, "merit", search.ObjectiveParams{}, true)
	if err != nil {
		return nil, err
	}
	return eval.Evaluate(app, o.Model, sels)
}

// perBenchmark runs fn on every benchmark, the seven Figure 4 kernels
// plus AES, fanned out across o.Workers with each call sequential inside.
// It returns the rows in benchmark order, or the first error in that
// order, named after its benchmark.
func perBenchmark[R any](o Options, fn func(kernels.Spec, Options) (R, error)) ([]R, error) {
	specs := append(kernels.All(), kernels.Spec{Name: "aes", App: kernels.AES(), CriticalSize: 696})
	rows := make([]R, len(specs))
	errs := make([]error, len(specs))
	inner := o
	inner.Workers = 1 // benchmark cells already saturate the pool
	o.runner().ForEach(len(specs), func(i int) {
		rows[i], errs[i] = fn(specs[i], inner)
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("%s: %w", specs[i].Name, err)
		}
	}
	return rows, nil
}

// simOne produces one SimulationValidation row.
func simOne(spec kernels.Spec, o Options) (SimRow, error) {
	sels, err := selectionsWithReuse(context.Background(), spec.App, o, nil)
	if err != nil {
		return SimRow{}, err
	}
	rep, err := eval.Evaluate(spec.App, o.Model, sels)
	if err != nil {
		return SimRow{}, err
	}
	simRes, err := sim.RunApp(spec.App, o.Model, eval.InstancesByBlock(sels))
	if err != nil {
		return SimRow{}, err
	}
	return SimRow{
		Benchmark: spec.Name,
		Estimated: rep.Speedup,
		Simulated: simRes.Speedup,
		RelErr:    eval.RelativeError(rep.Speedup, simRes.Speedup),
	}, nil
}
