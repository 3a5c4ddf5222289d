package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/exact"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/search"
)

// Suite is one tracked benchmark suite: a Figure 4 or Figure 6
// measurement point, run end to end by each call of Run. Run reports into
// the recorder ctx carries, so a harness can read the engines' work
// counters next to wall time and allocations.
type Suite struct {
	Name string
	Run  func(ctx context.Context) error
}

// Suites is the one table of tracked suites: `isebench -json` measures it
// (the CI allocs/op gate keys on its names), BenchmarkFigure4 and
// BenchmarkFigure6 run it, and TestFigure4ProbeToggleRatio runs its
// figure4/isegen/seq entry. Every protocol number comes from
// DefaultOptions. The two suites of a /seq, /par pair return identical
// cuts and differ only in worker-pool width.
func Suites() []Suite {
	o := DefaultOptions()
	kl := func(workers int) func(context.Context) error {
		return func(ctx context.Context) error {
			r := &search.Runner{Workers: workers, Cache: search.NewCostCache()}
			return eachKernel(0, func(spec kernels.Spec) error {
				_, _, err := r.GenerateContext(ctx, spec.App, o.isegenConfig(), search.Merit(o.Model), nil)
				return err
			})
		}
	}
	type exactSearch func(context.Context, *ir.Block, exact.Options, int) ([]*core.Cut, error)
	exactRun := func(run exactSearch, nodeLimit, subtreeWorkers int) func(context.Context) error {
		return func(ctx context.Context) error {
			return eachKernel(nodeLimit, func(spec kernels.Spec) error {
				opt := exact.Options{MaxIn: o.MaxIn, MaxOut: o.MaxOut, Model: o.Model, Budget: o.Budget, Workers: subtreeWorkers}
				_, err := run(ctx, spec.App.Blocks[0], opt, o.NISE)
				return err
			})
		}
	}
	engineRun := func(nodeLimit int, lim *search.Limits, newEngine func() search.Engine) func(context.Context) error {
		return func(ctx context.Context) error {
			return eachKernel(nodeLimit, func(spec kernels.Spec) error {
				_, _, err := newEngine().RunContext(ctx, spec.App.Blocks[0], search.Merit(o.Model), lim)
				return err
			})
		}
	}
	// The racing pair covers exactly the exact pair's kernels, so it
	// measures how much the heuristic-seeded bound prunes the proof.
	racing := func(klWorkers, subtreeWorkers int) func(context.Context) error {
		lim := o.limits(0)
		lim.Workers, lim.SubtreeWorkers = klWorkers, subtreeWorkers
		return engineRun(o.ExactNodeLimit, lim, func() search.Engine { return &search.Racing{Cache: search.NewCostCache()} })
	}
	aes := func(workers int) func(context.Context) error {
		oo := o
		oo.Workers = workers
		return func(ctx context.Context) error {
			_, err := generateWithReuse(ctx, kernels.AES(), oo, nil)
			return err
		}
	}
	return []Suite{
		{"figure4/isegen/seq", kl(1)},
		{"figure4/isegen/par", kl(0)},
		{"figure4/iterative/seq", exactRun(exact.IterativeContext, o.IterativeNodeLimit, 0)},
		{"figure4/iterative/par", exactRun(exact.IterativeContext, o.IterativeNodeLimit, -1)},
		{"figure4/exact/seq", exactRun(exact.MultiCutContext, o.ExactNodeLimit, 0)},
		{"figure4/exact/par", exactRun(exact.MultiCutContext, o.ExactNodeLimit, -1)},
		{"figure4/racing/seq", racing(1, 0)},
		{"figure4/racing/par", racing(0, -1)},
		{"figure4/genetic/seq", engineRun(0, o.limits(0), func() search.Engine {
			return &search.Genetic{Seed: o.GASeed, Cache: search.NewCostCache()}
		})},
		{"figure6/aes/seq", aes(1)},
		{"figure6/aes/par", aes(0)},
		{"figure6/aes-genetic/seq", func(ctx context.Context) error {
			_, err := geneticWithReuse(ctx, kernels.AES(), o, nil)
			return err
		}},
	}
}

// eachKernel runs fn on every Figure 4 kernel whose critical block has at
// most nodeLimit nodes (0 = all), naming the kernel in a returned error.
func eachKernel(nodeLimit int, fn func(kernels.Spec) error) error {
	for _, spec := range kernels.All() {
		if nodeLimit > 0 && spec.CriticalSize > nodeLimit {
			continue
		}
		if err := fn(spec); err != nil {
			return fmt.Errorf("%s: %w", spec.Name, err)
		}
	}
	return nil
}
