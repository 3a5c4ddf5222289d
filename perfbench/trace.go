package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/dfgio"
	"repro/internal/graph"
	"repro/internal/ir"
	"repro/internal/obs"
	"repro/internal/search"
	"repro/internal/service"
)

// Kinds of the benchmark's own spans, one around each layer call the
// pipeline makes. The program's spans (engine, block, search, trajectory,
// subtree) nest under spanRun.
const (
	spanJob   = "bench.job"
	spanRead  = "bench.read"
	spanParse = "bench.parse"
	spanHash  = "bench.hash"
	spanQueue = "bench.queue"
	spanRun   = "bench.run"
	spanEmit  = "bench.emit"
	spanFlush = "bench.flush"
)

// spanCap sizes each job's span ring; a job that records more spans drops
// the oldest, which the trace reports (Recorder.Dropped).
const spanCap = 1 << 15

// pipeline mirrors isegend's upload handler in process: body read, parse,
// hash, queue submit, service.Run streaming into an NDJSON encoder, and the
// post-job store flush — the same calls in the same order, on the daemon's
// default queue shape (64 slots, 2 workers, tenant budget 1).
type pipeline struct {
	params service.Params
	cache  *search.CostCache
	queue  *service.Queue
}

// job runs one upload through the pipeline, recording spans into rec (nil
// records nothing), and returns the NDJSON stream.
func (p *pipeline) job(ctx context.Context, tenant string, u *upload, rec *obs.Recorder) ([]byte, error) {
	jobSpan := rec.Start(0, spanJob, "")
	defer rec.End(jobSpan)

	sp := rec.Start(jobSpan, spanRead, "")
	body, err := io.ReadAll(bytes.NewReader(u.body))
	rec.End(sp)
	if err != nil {
		return nil, fmt.Errorf("read body: %w", err)
	}
	sp = rec.Start(jobSpan, spanParse, "")
	app, err := dfgio.ParseApplication("upload", bytes.NewReader(body))
	rec.End(sp)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	sp = rec.Start(jobSpan, spanHash, "")
	for _, b := range app.Blocks {
		dfgio.BlockHash(b)
	}
	rec.End(sp)

	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	var runErr, flushErr error
	queueSpan := rec.Start(jobSpan, spanQueue, tenant)
	job, err := p.queue.Submit(ctx, tenant, func(ctx context.Context) {
		rec.End(queueSpan)
		runSpan := rec.Start(jobSpan, spanRun, p.params.Algo)
		emit := func(v any) error {
			sp := rec.Start(runSpan, spanEmit, recordType(v))
			err := enc.Encode(v)
			rec.End(sp)
			return err
		}
		runErr = service.Run(obs.WithParentSpan(obs.WithRecorder(ctx, rec), runSpan), app, p.params, p.cache, emit)
		rec.End(runSpan)
		sp := rec.Start(jobSpan, spanFlush, "")
		flushErr = p.cache.Flush()
		rec.End(sp)
	})
	if err != nil {
		return nil, fmt.Errorf("submit: %w", err)
	}
	<-job.Done()
	if err := job.Err(); err != nil {
		return nil, fmt.Errorf("queued job: %w", err)
	}
	if err := errors.Join(runErr, flushErr); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

func recordType(v any) string {
	switch v.(type) {
	case *service.BlockResult:
		return "block"
	case *service.Summary:
		return "summary"
	default:
		return "other"
	}
}

// passResult is one in-process pass: its outputs, throughput and, when
// traced, the folded layer totals.
type passResult struct {
	outs    []output
	elapsed time.Duration
	layers  layerTotals
	// allocBytes and gcCycles are runtime deltas over the pass.
	allocBytes, gcCycles uint64
	cacheHits, cacheMiss int64
	store                search.StoreStats // delta; zero without a store
}

// inProcess runs the pipeline from one closed-loop client per feed for
// dur, the way closedLoop drives the daemon.
func inProcess(p *pipeline, dur time.Duration, traced bool, feeds []func() *upload) passResult {
	var (
		res passResult
		mu  sync.Mutex
		wg  sync.WaitGroup
	)
	res.layers.selfNs = map[string]int64{}
	h0, m0 := p.cache.Stats()
	st0 := storeStats(p.cache)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for c, next := range feeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tenant := fmt.Sprintf("bench-client-%d", c)
			for time.Since(start) < dur {
				u := next()
				if u == nil {
					return
				}
				var rec *obs.Recorder
				if traced {
					rec = obs.NewRecorder(spanCap)
				}
				body, err := p.job(context.Background(), tenant, u, rec)
				mu.Lock()
				res.outs = append(res.outs, output{up: u, status: 200, body: body, err: err})
				if traced {
					res.layers.fold(rec, len(u.body), len(body))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	res.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	res.gcCycles = uint64(ms1.NumGC - ms0.NumGC)
	h1, m1 := p.cache.Stats()
	res.cacheHits, res.cacheMiss = h1-h0, m1-m0
	st1 := storeStats(p.cache)
	res.store = search.StoreStats{
		Saves:        st1.Saves - st0.Saves,
		CurrentBytes: st1.CurrentBytes - st0.CurrentBytes,
		BytesEvicted: st1.BytesEvicted - st0.BytesEvicted,
	}
	return res
}

func storeStats(c *search.CostCache) search.StoreStats {
	if st := c.Store(); st != nil {
		return st.Stats()
	}
	return search.StoreStats{}
}

// layerTotals accumulates per-job trace folds over a traced pass.
type layerTotals struct {
	jobs int
	// selfNs sums span self time by span kind: each span's duration minus
	// the part of it its child spans cover. Parallel children each count
	// in full, so a kind's total is busy time, not wall time.
	selfNs map[string]int64
	// blockMaxNs sums, over jobs, the longest block span of the job.
	blockMaxNs int64
	// summaryGapNs sums the gap between the end of the last block record's
	// emit and the start of the summary's.
	summaryGapNs        int64
	bodyBytes, outBytes int64
	counters            obs.CounterSnapshot
	drops               int64
}

func (t *layerTotals) fold(rec *obs.Recorder, bodyBytes, outBytes int) {
	t.jobs++
	t.bodyBytes += int64(bodyBytes)
	t.outBytes += int64(outBytes)
	t.drops += rec.Dropped()
	t.counters.Add(rec.Counters())

	spans := rec.Spans()
	children := map[obs.SpanID][]obs.Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var blockMax, lastBlockEmit, summaryEmit int64
	for _, s := range spans {
		if s.EndNs == 0 {
			continue // still open: cannot happen once the job returned
		}
		t.selfNs[s.Kind] += selfTime(s, children[s.ID])
		switch {
		case s.Kind == obs.KindBlock && s.EndNs-s.StartNs > blockMax:
			blockMax = s.EndNs - s.StartNs
		case s.Kind == spanEmit && s.Name == "block" && s.EndNs > lastBlockEmit:
			lastBlockEmit = s.EndNs
		case s.Kind == spanEmit && s.Name == "summary":
			summaryEmit = s.StartNs
		}
	}
	t.blockMaxNs += blockMax
	if lastBlockEmit > 0 && summaryEmit > lastBlockEmit {
		t.summaryGapNs += summaryEmit - lastBlockEmit
	}
}

// selfTime is s's duration minus the union of its children's intervals
// clipped to s.
func selfTime(s obs.Span, kids []obs.Span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartNs, s.StartNs), min(k.EndNs, s.EndNs)
		if k.EndNs == 0 {
			b = s.EndNs
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered, end := int64(0), int64(-1)
	for _, v := range ivs {
		if v.a > end {
			covered += v.b - v.a
			end = v.b
		} else if v.b > end {
			covered += v.b - end
			end = v.b
		}
	}
	return s.EndNs - s.StartNs - covered
}

// freezeReplay rebuilds each block's dependence DAG from its operand edges
// (graph.NewDAG, AddEdge, Freeze) alone on the process, timing it and
// counting its allocation.
func freezeReplay(app *ir.Application) (time.Duration, uint64, error) {
	edges := make([][][2]int, len(app.Blocks))
	for bi, b := range app.Blocks {
		for i, nd := range b.Nodes {
			for _, a := range nd.Args {
				if a.Kind == ir.FromNode {
					edges[bi] = append(edges[bi], [2]int{a.Index, i})
				}
			}
		}
	}
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for bi, b := range app.Blocks {
		g := graph.NewDAG(b.N())
		for _, e := range edges[bi] {
			g.AddEdge(e[0], e[1])
		}
		if err := g.Freeze(); err != nil {
			return 0, 0, fmt.Errorf("freeze block %d: %w", bi, err)
		}
	}
	d := time.Since(start)
	runtime.ReadMemStats(&ms1)
	return d, ms1.TotalAlloc - ms0.TotalAlloc, nil
}
