// Command isegend is the long-lived ISE-selection service: it accepts
// .dfg uploads over HTTP, queues them on a bounded FIFO with per-tenant
// worker budgets, runs them on the unified search engine, and streams
// per-block selections back as NDJSON — bit-identical to what
// `isegen -json` produces offline for the same input and parameters.
//
// Endpoints:
//
//	POST /v1/select?algo=isegen&in=4&out=2&nise=4&workers=0&reuse=true
//	     body: .dfg text; optional X-Tenant header (or ?tenant=) for
//	     budget accounting. Response: NDJSON — one "block" record per
//	     basic block in block order, then one "summary" record.
//	     &subtree_workers= and &split_depth= (exact engines, including
//	     racing) fan the branch-and-bound out inside each block on a
//	     shared best-bound — results stay bit-identical for every value;
//	     &max_frontier= (objective=pareto only) bounds the frontier
//	     record with deterministic eviction.
//	     algo=racing races K-L and the genetic baseline against the
//	     exact engine per block (each heuristic answer seeds the exact
//	     search's best-bound) and interleaves "frontier"
//	     records marked anytime/optimal as each racer publishes; the
//	     block records stay bit-identical to algo=exact. &deadline= (a Go
//	     duration, e.g. 200ms; racing only) bounds each block's race —
//	     on expiry the stream carries the best anytime answer instead of
//	     the proven optimum. /v1/metrics reports the seeding
//	     effectiveness (racing jobs, bound raises, seeded vs unseeded
//	     explored node counts).
//	     &objective= selects the scoring objective (merit, reuse, area,
//	     energy, latency, class, pareto; parameterized by &gate_penalty=,
//	     &latency_budget=, &class_weights=memory=0.5,compute=2). An
//	     explicit objective extends each selection with its objective
//	     vector; objective=pareto inserts a "frontier" record (the
//	     non-dominated candidates) before the summary. Engines other
//	     than isegen accept only objective=merit. The default stream is
//	     unchanged and stays bit-identical to `isegen -json`.
//	GET  /v1/metrics    queue/cache/racing/runtime/search statistics (JSON,
//	     including engine-internal counters and fixed-bucket latency and
//	     queue-wait histograms), one snapshot per scrape
//	GET  /metrics       Prometheus text exposition of the same snapshot
//	GET  /healthz       readiness probe: 503 with a JSON reason while the
//	     persistent store is loading or the queue is saturated, 200
//	     otherwise; ?live=1 is the always-200 liveness probe
//
// -pprof addr serves net/http/pprof on a separate listener (e.g.
// -pprof localhost:6060), keeping the profiling surface off the API
// port: CPU/heap/goroutine profiles at /debug/pprof/ without exposing
// them to API clients.
//
// With -cache-dir, cut costings persist on disk keyed by canonical block
// hash (size-bounded, LRU-evicted), so repeated sweeps over the same
// application skip cut costing entirely — even across daemon restarts.
//
// Example:
//
//	isegend -addr :8080 -cache-dir /var/cache/isegend &
//	isegen -json file.dfg > offline.ndjson
//	curl -sS --data-binary @file.dfg 'localhost:8080/v1/select' > served.ndjson
//	diff offline.ndjson served.ndjson   # empty: determinism contract
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on DefaultServeMux (the -pprof listener only)
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/search"
	"repro/internal/service"
)

func main() {
	var (
		addr       = flag.String("addr", ":8080", "listen address")
		queueCap   = flag.Int("queue", 64, "bounded FIFO capacity; further submissions get 503")
		jobs       = flag.Int("jobs", 2, "jobs executed concurrently (queue workers)")
		budget     = flag.Int("tenant-budget", 1, "max concurrently running jobs per tenant")
		workers    = flag.Int("workers", 0, "per-job search worker pool bound (0 = one per CPU core)")
		cacheDir   = flag.String("cache-dir", "", "persist cut costings under this directory (empty = memory only)")
		cacheBytes = flag.Int64("cache-bytes", search.DefaultStoreBytes, "disk cache size bound in bytes (LRU-evicted; negative = unbounded)")
		maxBody    = flag.Int64("max-body", 16<<20, "maximum upload size in bytes")
		pprofAddr  = flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060; empty = disabled)")
		jobDeadl   = flag.Duration("job-deadline", 0, "server-enforced per-job run deadline (e.g. 30s; 0 = none); expiry returns 504 or an in-stream error record")
		cacheFsync = flag.Bool("cache-fsync", false, "fsync cache entry files before the atomic rename (crash durability at write-latency cost)")
	)
	flag.Parse()
	if err := run(*addr, *queueCap, *jobs, *budget, *workers, *cacheDir, *cacheBytes, *maxBody, *pprofAddr, *jobDeadl, *cacheFsync); err != nil {
		fmt.Fprintln(os.Stderr, "isegend:", err)
		os.Exit(1)
	}
}

func run(addr string, queueCap, jobs, budget, workers int, cacheDir string, cacheBytes, maxBody int64, pprofAddr string, jobDeadline time.Duration, cacheFsync bool) error {
	if pprofAddr != "" {
		// The API handler is a custom mux, so the pprof handlers (which
		// the blank net/http/pprof import registers on DefaultServeMux)
		// are reachable only through this listener — the profiling
		// surface never leaks onto the API port.
		go func() {
			log.Printf("pprof listening on %s", pprofAddr)
			if err := http.ListenAndServe(pprofAddr, nil); err != nil {
				log.Printf("pprof listener failed: %v", err)
			}
		}()
	}
	var store *search.Store
	if cacheDir != "" {
		var err error
		if store, err = search.NewStoreOptions(cacheDir, cacheBytes, search.StoreOptions{Fsync: cacheFsync}); err != nil {
			return err
		}
		log.Printf("persistent cost cache at %s (bound %d bytes, fsync %v)", cacheDir, cacheBytes, cacheFsync)
	}
	srv := service.NewServer(service.Config{
		QueueCapacity: queueCap,
		Workers:       jobs,
		TenantBudget:  budget,
		RunnerWorkers: workers,
		Cache:         search.NewPersistentCostCache(store),
		MaxBodyBytes:  maxBody,
		JobDeadline:   jobDeadline,
	})

	hs := &http.Server{Addr: addr, Handler: srv.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	log.Printf("isegend listening on %s (queue %d, jobs %d, tenant budget %d)", addr, queueCap, jobs, budget)

	select {
	case err := <-errc:
		srv.Close()
		return err
	case <-ctx.Done():
	}
	log.Print("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := hs.Shutdown(shutCtx)
	if err != nil && !errors.Is(err, http.ErrServerClosed) {
		// Graceful drain timed out: force-close the connections so the
		// in-flight request contexts cancel and the queue workers'
		// searches abort — otherwise srv.Close below would wait for a
		// long-running job with nothing left to cancel it.
		log.Printf("graceful drain incomplete (%v); closing connections", err)
		_ = hs.Close()
	}
	srv.Close() // drains workers, flushes the cache to disk
	return nil
}
