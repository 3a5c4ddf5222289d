// Command isegen identifies Instruction Set Extensions in .dfg files.
//
// Usage:
//
//	isegen [flags] file.dfg
//
// The input may contain several blocks (an application). Both output
// modes run the job through internal/service.Run, the path the isegend
// daemon serves, so they report the same selections. -algo isegen is the
// paper's application-level greedy flow; the baselines run on every block
// and count each cut once, and a block over an engine's node limit is
// listed as skipped instead of failing the run. The text report lists each
// ISE with its node set, I/O counts, merit and claimed instance count,
// then the whole-application report.
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
// schema and byte-for-byte output as the isegend service, so offline and
// served runs are diffable. An explicit -objective extends each selection
// record with its objective vector; -objective pareto adds a "frontier"
// record. Without -objective the stream is bit-identical to the
// pre-objective schema.
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
	"slices"
	"strings"

	isegen "repro"
	"repro/internal/obs"
	"repro/internal/service"
)

func main() {
	d := service.DefaultParams()
	var (
		algo      = flag.String("algo", d.Algo, "algorithm: "+strings.Join(isegen.SearchEngineNames(), ", "))
		objective = flag.String("objective", "", "objective: "+strings.Join(isegen.ObjectiveNames(), ", ")+
			" (default: reuse-aware scoring, merit with -noreuse; non-merit objectives require -algo isegen)")
		gatePenalty = flag.Float64("gate-penalty", 0, "area objective: merit discount per NAND2 gate (0 = default)")
		latBudget   = flag.Int("latency-budget", 0, "latency objective: max AFU cycles per ISE (required with -objective latency)")
		classWts    = flag.String("class-weights", "", `class objective: comma-separated class=weight list, e.g. "memory=0.5,compute=2"`)
		maxFrontier = flag.Int("max-frontier", 0, "pareto objective: bound on retained frontier points (0 = unbounded; deterministic eviction)")
		maxIn       = flag.Int("in", d.MaxIn, "maximum ISE input operands")
		maxOut      = flag.Int("out", d.MaxOut, "maximum ISE output operands")
		nise        = flag.Int("nise", d.NISE, "maximum number of ISEs (AFUs)")
		seed        = flag.Int64("seed", d.Seed, "random seed for the genetic algorithm")
		workers     = flag.Int("workers", 0, "worker pool size (0 = one per CPU core; results are identical)")
		subWorkers  = flag.Int("subtree-workers", 0, "exact engines: in-block branch-and-bound workers (0/1 = single-threaded, -1 = one per CPU core; in-budget runs are identical)")
		splitDepth  = flag.Int("split-depth", 0, "exact engines: decision depth of the subtree split (0 = automatic; results are identical)")
		deadline    = flag.Duration("deadline", 0, "racing engine: per-block wall-clock bound (e.g. 200ms; 0 = none) — on expiry the best anytime answer so far is returned instead of the proven optimum")
		dotFile     = flag.String("dot", "", "write a Graphviz rendering of the first block with cuts highlighted")
		noReuse     = flag.Bool("noreuse", !d.Reuse, "disable reuse matching (each cut counts once)")
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
	if *jsonOut && *dotFile != "" {
		fmt.Fprintln(os.Stderr, "isegen: -dot is not supported with -json (the NDJSON stream carries no render); drop one of the two flags")
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
	err = run(ctx, flag.Arg(0), p, *cacheDir, *jsonOut, *dotFile)
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

// run executes the job through service.Run — the isegend daemon's path —
// and renders its record stream: as NDJSON with jsonOut (so offline and
// served outputs diff clean), otherwise as the text report. With
// cacheDir set the cut-costing cache is content-hash-keyed on disk,
// loaded and flushed back, so a repeated run skips costing entirely.
func run(ctx context.Context, path string, p service.Params, cacheDir string, jsonOut bool, dotFile string) (err error) {
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
	cache := isegen.NewCostCache()
	if cacheDir != "" {
		store, err := isegen.NewCostCacheStore(cacheDir, 0)
		if err != nil {
			return err
		}
		cache = isegen.NewPersistentCostCache(store)
	}
	// Flush on every outcome: costings computed before a late failure
	// are still worth persisting for the next run.
	defer func() {
		if ferr := cache.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}()
	emit := service.NDJSONEmitter(os.Stdout)
	if !jsonOut {
		emit = (&textReport{app: app, dotFile: dotFile}).emit
	}
	return service.Run(ctx, app, p, cache, emit)
}

// textReport renders service.Run's records as the human-readable report:
// one entry per ISE in ISE order, a line per skipped block, the Pareto
// frontier (objective pareto) and the whole-application line. Nothing is
// written before the summary record arrives, so a failed job prints only
// its error. Racing frontier records are in-flight progress and are not
// rendered.
type textReport struct {
	app      *isegen.Application
	dotFile  string
	blocks   []*service.BlockResult
	frontier *service.FrontierRecord
}

func (r *textReport) emit(v any) error {
	switch rec := v.(type) {
	case *service.BlockResult:
		r.blocks = append(r.blocks, rec)
	case *service.FrontierRecord:
		r.frontier = rec
	case *service.Summary:
		return r.write(rec)
	}
	return nil
}

// nodes rebuilds a wire node list as a node set of block bi.
func (r *textReport) nodes(bi int, elems []int) *isegen.BitSet {
	s := isegen.NewBitSet(r.app.Blocks[bi].N())
	for _, v := range elems {
		s.Set(v)
	}
	return s
}

func vector(v service.ObjectiveVector) isegen.ObjectiveVector {
	return isegen.ObjectiveVector{Merit: v.Merit, Area: v.Area, Energy: v.Energy}
}

func (r *textReport) write(sum *service.Summary) error {
	// The stream groups selections by block; the report lists them in
	// ISE (selection) order.
	type blockSelection struct {
		block *service.BlockResult
		sel   service.Selection
	}
	var sels []blockSelection
	for _, b := range r.blocks {
		for _, sel := range b.Selections {
			sels = append(sels, blockSelection{b, sel})
		}
	}
	slices.SortFunc(sels, func(a, b blockSelection) int { return a.sel.ISE - b.sel.ISE })
	for _, bs := range sels {
		sel := bs.sel
		fmt.Printf("ISE %d: block %q nodes %v\n", sel.ISE, bs.block.Name, r.nodes(bs.block.Block, sel.Nodes))
		fmt.Printf("  io (%d,%d), swlat %d, afu cycles %d, merit %.0f, instances %d\n",
			sel.NumIn, sel.NumOut, sel.SWLat, sel.HWCycles, sel.Merit, len(sel.Instances))
		if sel.Objectives != nil {
			fmt.Printf("  objectives: %s\n", vector(*sel.Objectives))
		}
	}
	for _, b := range r.blocks {
		if b.Skipped != "" {
			fmt.Printf("block %q skipped: %s\n", b.Name, b.Skipped)
		}
	}
	if r.frontier != nil {
		fmt.Printf("pareto frontier: %d non-dominated candidates (merit max, area min, energy max; * = selected)\n", len(r.frontier.Points))
		for _, pt := range r.frontier.Points {
			mark := " "
			if pt.Selected {
				mark = "*"
			}
			fmt.Printf(" %s block %d nodes %v: %s\n", mark, pt.Block, r.nodes(pt.Block, pt.Nodes), vector(pt.Objectives))
		}
	}
	fmt.Println(applicationLine(sum))
	if r.dotFile == "" {
		return nil
	}
	var cuts []*isegen.BitSet
	for _, sel := range r.blocks[0].Selections {
		cuts = append(cuts, r.nodes(0, sel.Nodes))
	}
	df, err := os.Create(r.dotFile)
	if err != nil {
		return err
	}
	if err := isegen.WriteDOT(df, r.app.Blocks[0], cuts); err != nil {
		df.Close()
		return err
	}
	if err := df.Close(); err != nil {
		return err
	}
	fmt.Println("wrote", r.dotFile)
	return nil
}

// applicationLine formats the whole-application report of a summary.
func applicationLine(sum *service.Summary) string {
	return fmt.Sprintf("application: speedup %.3f, coverage %.1f%%, code size %d -> %d, energy %.1f%%",
		sum.Speedup, 100*sum.Coverage, sum.StaticBefore, sum.StaticAfter, 100*sum.EnergyRatio)
}
