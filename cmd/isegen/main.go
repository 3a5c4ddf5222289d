// Command isegen identifies Instruction Set Extensions in .dfg files.
//
// Usage:
//
//	isegen [flags] file.dfg
//
// The input may contain several blocks (an application). Results are
// printed per cut with node sets, I/O counts, merits and claimed instance
// counts, followed by the whole-application report.
//
// Flags select the algorithm (-algo isegen|genetic|exact|iterative|racing
// — any name in the unified search-engine registry), the objective
// (-objective merit|reuse|area|energy|latency|class|pareto — any name in
// the objective registry; -gate-penalty, -latency-budget, -class-weights
// and -max-frontier parameterize it), the port constraints (-in, -out),
// the AFU budget (-nise), the worker-pool size (-workers), the exact
// engines' in-block branch-and-bound pool (-subtree-workers, -split-depth;
// results are bit-identical for every value) and optional DOT output
// highlighting the cuts (-dot file).
//
// -algo racing races K-L and the genetic baseline against the exact
// engine per block: each heuristic answer seeds the exact search's
// best-bound, so the proven-optimal result (the same bits -algo exact
// produces) arrives sooner; with -json the stream
// additionally carries "frontier" records marked anytime/optimal as each
// racer publishes. -deadline bounds each block's race wall-clock — on
// expiry the best anytime answer so far is returned without an error
// (racing only; timing-dependent by construction).
//
// The baselines (exact, iterative, genetic) optimize merit internally and
// accept only -objective merit; every other objective requires
// -algo isegen. Invalid pairs are rejected up front with the full list of
// valid combinations. With -objective pareto, selection is by Pareto
// dominance over (merit, area, energy) and the run additionally prints
// the non-dominated frontier.
//
// -json switches to the machine-readable NDJSON result stream — the same
// schema, code path and byte-for-byte output as the isegend service
// (internal/service.Run), so offline and served runs are diffable. An
// explicit -objective extends each selection record with its objective
// vector; -objective pareto adds a "frontier" record. Without -objective
// the stream is bit-identical to the pre-objective schema.
// -cache-dir persists cut costings across runs (keyed by canonical block
// hash), making repeated sweeps over the same file near-free.
//
// -trace file.ndjson records the run's span tree (job → block → engine →
// trajectory/subtree, monotonic timestamps, parent links) plus the
// engine-internal counters and writes them as NDJSON; -summary prints a
// human-readable per-kind/per-counter table to stderr instead of (or in
// addition to) the file. Recording never changes the result stream — the
// NDJSON output is byte-identical with and without -trace.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	isegen "repro"
	"repro/internal/eval"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	var (
		algo      = flag.String("algo", "isegen", "algorithm: "+strings.Join(isegen.SearchEngineNames(), ", "))
		objective = flag.String("objective", "", "objective: "+strings.Join(isegen.ObjectiveNames(), ", ")+
			" (default: reuse-aware scoring, merit with -noreuse; non-merit objectives require -algo isegen)")
		gatePenalty = flag.Float64("gate-penalty", 0, "area objective: merit discount per NAND2 gate (0 = default)")
		latBudget   = flag.Int("latency-budget", 0, "latency objective: max AFU cycles per ISE (required with -objective latency)")
		classWts    = flag.String("class-weights", "", `class objective: comma-separated class=weight list, e.g. "memory=0.5,compute=2"`)
		maxFrontier = flag.Int("max-frontier", 0, "pareto objective: bound on retained frontier points (0 = unbounded; deterministic eviction)")
		maxIn       = flag.Int("in", 4, "maximum ISE input operands")
		maxOut      = flag.Int("out", 2, "maximum ISE output operands")
		nise        = flag.Int("nise", 4, "maximum number of ISEs (AFUs)")
		seed        = flag.Int64("seed", 1, "random seed for the genetic algorithm")
		workers     = flag.Int("workers", 0, "worker pool size (0 = one per CPU core; results are identical)")
		subWorkers  = flag.Int("subtree-workers", 0, "exact engines: in-block branch-and-bound workers (0/1 = single-threaded, -1 = one per CPU core; in-budget runs are identical)")
		splitDepth  = flag.Int("split-depth", 0, "exact engines: decision depth of the subtree split (0 = automatic; results are identical)")
		deadline    = flag.Duration("deadline", 0, "racing engine: per-block wall-clock bound (e.g. 200ms; 0 = none) — on expiry the best anytime answer so far is returned instead of the proven optimum")
		dotFile     = flag.String("dot", "", "write a Graphviz rendering of the first block with cuts highlighted")
		noReuse     = flag.Bool("noreuse", false, "disable reuse matching (each cut counts once)")
		jsonOut     = flag.Bool("json", false, "emit the NDJSON result stream (same schema and bytes as the isegend service)")
		cacheDir    = flag.String("cache-dir", "", "persist cut costings under this directory across runs")
		traceFile   = flag.String("trace", "", "record the run's span trace and counters as NDJSON to this file")
		traceSum    = flag.Bool("summary", false, "print a human-readable span/counter summary to stderr (implies recording)")
	)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: isegen [flags] file.dfg")
		flag.Usage()
		os.Exit(2)
	}
	weights, err := service.ParseClassWeights(*classWts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "isegen:", err)
		os.Exit(2)
	}
	p := service.Params{
		Algo: *algo, MaxIn: *maxIn, MaxOut: *maxOut, NISE: *nise,
		Seed: *seed, Workers: *workers, Reuse: !*noReuse,
		SubtreeWorkers: *subWorkers, SplitDepth: *splitDepth,
		Deadline:  *deadline,
		Objective: *objective, GatePenalty: *gatePenalty,
		LatencyBudget: *latBudget, ClassWeights: weights,
		MaxFrontier: *maxFrontier,
	}
	// Validate the full parameter set up front — in particular the
	// objective/engine pairing, so an unsupported combination is one
	// clear usage error listing the valid pairs instead of a rejection
	// from deep inside an engine.
	if err := p.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "isegen:", err)
		os.Exit(2)
	}
	// Recording is attached through the context; the engines see the same
	// code path either way (nil-recorder methods are no-ops), so -trace
	// cannot perturb the result bytes.
	ctx := context.Background()
	var rec *obs.Recorder
	var jobSpan obs.SpanID
	if *traceFile != "" || *traceSum {
		rec = obs.NewRecorder(obs.DefaultSpanCap)
		jobSpan = rec.Start(0, obs.KindJob, p.Algo)
		ctx = obs.WithParentSpan(obs.WithRecorder(ctx, rec), jobSpan)
	}
	if *jsonOut {
		if *dotFile != "" {
			fmt.Fprintln(os.Stderr, "isegen: -dot is not supported with -json (the NDJSON stream carries no render); drop one of the two flags")
			os.Exit(2)
		}
		err = runJSON(ctx, flag.Arg(0), p, *cacheDir)
	} else {
		err = run(ctx, flag.Arg(0), p, *dotFile, *cacheDir)
	}
	if rec != nil {
		rec.End(jobSpan)
		if terr := writeTrace(rec, *traceFile); terr != nil && err == nil {
			err = terr
		}
		if *traceSum {
			rec.WriteSummary(os.Stderr)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "isegen:", err)
		os.Exit(1)
	}
}

// writeTrace dumps the recorded span tree and counters as NDJSON.
func writeTrace(rec *obs.Recorder, path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.WriteSpans(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// openCache builds the run's cut-costing cache: disk-persistent when
// cacheDir is set (content-hash-keyed, flushed by the caller), otherwise
// a plain in-memory cache.
func openCache(cacheDir string) (*isegen.CostCache, error) {
	if cacheDir == "" {
		return isegen.NewCostCache(), nil
	}
	store, err := isegen.NewCostCacheStore(cacheDir, 0)
	if err != nil {
		return nil, err
	}
	return isegen.NewPersistentCostCache(store), nil
}

// runJSON is the machine-readable path: service.Run streaming NDJSON to
// stdout — exactly what the isegend daemon serves, so the outputs diff
// clean. With -cache-dir the cut-costing cache is loaded from and flushed
// back to disk, so a repeated run skips costing entirely.
func runJSON(ctx context.Context, path string, p service.Params, cacheDir string) (err error) {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	// The application name is not part of the result stream, so the
	// upload name used by the service and the file path used here cannot
	// break the determinism contract.
	app, err := isegen.ParseApplication(path, f)
	if err != nil {
		return err
	}
	cache, err := openCache(cacheDir)
	if err != nil {
		return err
	}
	// Flush on every outcome: costings computed before a late failure
	// are still worth persisting for the next run.
	defer func() {
		if ferr := cache.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	return service.Run(ctx, app, p, cache, service.NDJSONEmitter(os.Stdout))
}

func run(ctx context.Context, path string, p service.Params, dotFile, cacheDir string) (err error) {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	app, err := isegen.ParseApplication(path, f)
	if err != nil {
		return err
	}
	model := isegen.DefaultModel()
	cache, err := openCache(cacheDir)
	if err != nil {
		return err
	}
	defer func() {
		if ferr := cache.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}()

	var sels []isegen.Selection
	var frontier *isegen.Frontier
	if p.Algo == "isegen" {
		// The ISEGEN flow is application-level: the driver walks all
		// blocks by speedup potential under the chosen objective
		// (default: reuse-aware scoring).
		cfg := isegen.DefaultConfig()
		cfg.MaxIn, cfg.MaxOut, cfg.NISE, cfg.Workers = p.MaxIn, p.MaxOut, p.NISE, p.Workers
		r := &isegen.Runner{Workers: p.Workers, Cache: cache}
		if sels, frontier, err = r.Select(ctx, app, cfg, p.Objective, p.ObjectiveParams(), p.Reuse); err != nil {
			return err
		}
	} else {
		// Baselines operate per block through the unified engine
		// registry; run them on the largest block, as the paper does
		// (the critical basic block).
		eng, err := isegen.NewSearchEngine(p.Algo, cache)
		if err != nil {
			return err
		}
		if ga, ok := eng.(interface{ SetSeed(int64) }); ok {
			ga.SetSeed(p.Seed)
		}
		hot := 0
		for i, b := range app.Blocks {
			if b.N() > app.Blocks[hot].N() {
				hot = i
			}
		}
		lim := &isegen.SearchLimits{
			MaxIn: p.MaxIn, MaxOut: p.MaxOut, NISE: p.NISE,
			NodeLimit: isegen.DefaultNodeLimit(p.Algo), Budget: isegen.DefaultSearchBudget,
			Workers: p.Workers, SubtreeWorkers: p.SubtreeWorkers, SplitDepth: p.SplitDepth,
			Deadline: p.Deadline,
		}
		cuts, _, err := eng.RunContext(ctx, app.Blocks[hot], isegen.MeritObjective(model), lim)
		if err != nil {
			return err
		}
		if !p.Reuse {
			sels = eval.SingleInstanceSelections(app, cuts)
		} else {
			blockIdx := map[*isegen.Block]int{}
			for i, b := range app.Blocks {
				blockIdx[b] = i
			}
			sels = isegen.ClaimAllWithReuse(app, cuts, func(c *isegen.Cut) int { return blockIdx[c.Block] })
		}
	}

	for i, sel := range sels {
		fmt.Printf("ISE %d: block %q nodes %v\n", i+1, sel.Cut.Block.Name, sel.Cut.Nodes)
		fmt.Printf("  io (%d,%d), swlat %d, afu cycles %d, merit %.0f, instances %d\n",
			sel.Cut.NumIn, sel.Cut.NumOut, sel.Cut.SWLat, sel.Cut.HWCyclesInt(), sel.Cut.Merit(), len(sel.Instances))
		if p.Objective != "" {
			v := isegen.CutObjectiveVector(model, sel.Cut)
			fmt.Printf("  objectives: %s\n", v)
		}
	}
	if frontier != nil {
		fmt.Printf("pareto frontier: %d non-dominated candidates (merit max, area min, energy max; * = selected)\n", frontier.Len())
		for _, pt := range frontier.Points() {
			mark := " "
			if pt.Selected {
				mark = "*"
			}
			fmt.Printf(" %s block %d nodes %v: %s\n", mark, pt.Block, pt.Cut.Nodes, pt.Vector)
		}
	}
	rep, err := isegen.Evaluate(app, model, sels)
	if err != nil {
		return err
	}
	fmt.Printf("application: speedup %.3f, coverage %.1f%%, code size %d -> %d, energy %.1f%%\n",
		rep.Speedup, 100*rep.Coverage, rep.StaticBefore, rep.StaticAfter, 100*rep.EnergyAfter/rep.EnergyBefore)

	if dotFile != "" {
		var cuts []*isegen.BitSet
		for _, sel := range sels {
			if sel.Cut.Block == app.Blocks[0] {
				cuts = append(cuts, sel.Cut.Nodes)
			}
		}
		df, err := os.Create(dotFile)
		if err != nil {
			return err
		}
		defer df.Close()
		if err := isegen.WriteDOT(df, app.Blocks[0], cuts); err != nil {
			return err
		}
		fmt.Println("wrote", dotFile)
	}
	return nil
}
