package main

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/service"
)

// traced runs the in-process pipeline twice for half the run each: first
// untraced (throughput, allocation and GC per job), then traced (span and
// counter folds per layer). Every output is checked like a served one.
func (b *bench) traced() (*result, error) {
	half := time.Duration(b.o.seconds) * time.Second / 2
	plain, err := b.pass("plain", half, false)
	if err != nil {
		return nil, err
	}
	tr, err := b.pass("traced", half, true)
	if err != nil {
		return nil, err
	}

	if len(plain.outs) == 0 || tr.layers.jobs == 0 {
		return nil, fmt.Errorf("a pass completed no jobs")
	}
	r, err := b.checkAll(append(append([]output(nil), plain.outs...), tr.outs...))
	if err != nil {
		return nil, err
	}
	if r.firstFailure != "" {
		b.details["first_failure"] = r.firstFailure
	}

	// The DAG freeze replay runs alone, after both passes, so its
	// allocation count sees no other work. It covers the traced pass's
	// jobs: each distinct upload once, weighted by how often it ran.
	runs := map[*upload]float64{}
	for _, o := range tr.outs {
		runs[o.up]++
	}
	var freezeNs, freezeAlloc float64
	for u, n := range runs {
		app, err := u.parse()
		if err != nil {
			return nil, err
		}
		d, alloc, err := freezeReplay(app)
		if err != nil {
			return nil, err
		}
		freezeNs += n * float64(d)
		freezeAlloc += n * float64(alloc)
	}

	jobs := float64(tr.layers.jobs)
	plainJobs := float64(len(plain.outs))
	t := &tr.layers
	ms := func(ns int64) float64 { return float64(ns) / 1e6 / jobs }
	self := func(kinds ...string) float64 {
		var ns int64
		for _, k := range kinds {
			ns += t.selfNs[k]
		}
		return ms(ns)
	}
	count := func(c obs.Counter) float64 { return float64(t.counters.Get(c)) / jobs }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	tracedRate := jobs / tr.elapsed.Seconds()
	plainRate := plainJobs / plain.elapsed.Seconds()
	prunes := float64(t.counters.Get(obs.ExactLocalPrunes) + t.counters.Get(obs.ExactSharedPrunes))

	m := map[string]metric{
		"dfgio.parse_ms":         {self(spanParse), "ms"},
		"dfgio.parse_mb_per_s":   {ratio(float64(t.bodyBytes)/(1<<20), float64(t.selfNs[spanParse])/1e9), "MB/s"},
		"dfgio.hash_ms":          {self(spanHash), "ms"},
		"graph.freeze_ms":        {freezeNs / 1e6 / jobs, "ms"},
		"graph.freeze_alloc_mb":  {freezeAlloc / (1 << 20) / jobs, "MB"},
		"service.queue_wait_ms":  {self(spanQueue), "ms"},
		"service.emit_ms":        {self(spanEmit), "ms"},
		"service.out_kb":         {float64(t.outBytes) / 1024 / jobs, "KB"},
		"search.engine_ms":       {self(obs.KindEngine, obs.KindBlock), "ms"},
		"search.block_ms_max":    {ms(t.blockMaxNs), "ms"},
		"search.cache_hit_ratio": {ratio(float64(tr.cacheHits), float64(tr.cacheHits+tr.cacheMiss)), "ratio"},
		"search.cache_misses":    {float64(tr.cacheMiss) / jobs, "count"},
		"search.store_flush_ms":  {self(spanFlush), "ms"},
		// Bytes added to the store: net growth plus what eviction freed.
		"search.store_bytes_written":      {float64(tr.store.CurrentBytes+tr.store.BytesEvicted) / jobs, "bytes"},
		"search.store_entries":            {float64(tr.store.Saves) / jobs, "count"},
		"core.trajectory_ms":              {self(obs.KindTrajectory), "ms"},
		"core.kl_toggles":                 {count(obs.KLToggles), "count"},
		"core.kl_probes_per_toggle":       {ratio(count(obs.KLProbes), count(obs.KLToggles)), "ratio"},
		"core.kl_gaincache_hit_ratio":     {ratio(count(obs.KLGainCacheHits), count(obs.KLGainCacheHits)+count(obs.KLGainCacheMisses)), "ratio"},
		"exact.search_ms":                 {self(obs.KindSearch, obs.KindSubtree), "ms"},
		"exact.explored":                  {count(obs.ExactExplored), "count"},
		"exact.prune_ratio":               {ratio(prunes, float64(t.counters.Get(obs.ExactExplored))), "ratio"},
		"exact.bound_raises":              {count(obs.ExactBoundRaises), "count"},
		"genetic.evaluations":             {count(obs.GeneticEvaluations), "count"},
		"search.racing_seed_publications": {count(obs.RacingSeeds), "count"},
		"eval.summary_ms":                 {ms(t.summaryGapNs), "ms"},
		"runtime.alloc_mb_per_job":        {float64(plain.allocBytes) / (1 << 20) / plainJobs, "MB"},
		"runtime.gc_cycles_per_job":       {float64(plain.gcCycles) / plainJobs, "count"},
		"trace.span_drops":                {float64(t.drops), "count"},
		"trace.jobs_per_s_untraced":       {plainRate, "1/s"},
		"trace.jobs_per_s_traced":         {tracedRate, "1/s"},
		"trace.overhead_frac":             {1 - tracedRate/plainRate, "ratio"},
	}
	b.details["traced_jobs"] = t.jobs
	b.details["untraced_jobs"] = len(plain.outs)
	b.details["layer_numbers_valid"] = t.drops == 0
	return &result{Correct: r.wrong == 0, Attempted: r.attempted, Failed: r.attempted - r.ok, Metrics: m}, nil
}

// pass builds a pipeline over the cache the daemon would have — the warm
// store, a fresh empty store, or the memory-only default — and runs it.
func (b *bench) pass(name string, dur time.Duration, traced bool) (passResult, error) {
	cache := search.NewPersistentCostCache(nil)
	if b.w.store != storeNone {
		dir := b.storeDir("warm")
		if b.w.store == storeCold {
			dir = b.storeDir("cold-" + name)
		}
		st, err := search.NewStore(dir, search.DefaultStoreBytes)
		if err != nil {
			return passResult{}, err
		}
		st.Stats() // the directory scan the daemon finishes before it reports ready
		cache = search.NewPersistentCostCache(st)
	}
	q := service.NewQueue(64, 2, 1)
	defer q.Close()
	p := &pipeline{params: b.w.params(), cache: cache, queue: q}
	return inProcess(p, dur, traced, b.feeds()), nil
}
