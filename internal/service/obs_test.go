package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/dfgio"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/search"
)

// TestRecordingDoesNotPerturbOutput pins the observability layer's core
// contract: attaching a live Recorder to a job's context must not change
// a single byte of the NDJSON stream, across algorithms and worker
// counts. The recorder only reads the clock and increments write-only
// counters; this test is the guard that keeps it that way.
func TestRecordingDoesNotPerturbOutput(t *testing.T) {
	dfg := kernelDFG(t, kernels.Fbital00())
	app, err := dfgio.ParseApplication("upload", bytes.NewReader(dfg))
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(*Params)
		app  *ir.Application // nil runs fbital00
	}{
		{"isegen-w1", func(p *Params) { p.Workers = 1 }, nil},
		{"isegen-w3", func(p *Params) { p.Workers = 3 }, nil},
		{"iterative", func(p *Params) { p.Algo = "iterative" }, nil},
		{"genetic", func(p *Params) { p.Algo, p.Seed, p.Workers = "genetic", 7, 2 }, nil},
		// viterb00's exact proof takes long enough that the genetic racer
		// always starts before the race is decided.
		{"racing", func(p *Params) { p.Algo = "racing" }, kernels.Viterb00()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := DefaultParams()
			tc.mut(&p)
			app := app
			if tc.app != nil {
				app = tc.app
			}

			var off bytes.Buffer
			if err := Run(context.Background(), app, p, search.NewCostCache(), NDJSONEmitter(&off)); err != nil {
				t.Fatal(err)
			}

			rec := obs.NewRecorder(obs.DefaultSpanCap)
			ctx := obs.WithRecorder(context.Background(), rec)
			var on bytes.Buffer
			if err := Run(ctx, app, p, search.NewCostCache(), NDJSONEmitter(&on)); err != nil {
				t.Fatal(err)
			}

			got, want := on.Bytes(), off.Bytes()
			if p.Algo == "racing" {
				_, onRest := splitRaceStream(t, got)
				_, offRest := splitRaceStream(t, want)
				got, want = bytes.Join(onRest, []byte("\n")), bytes.Join(offRest, []byte("\n"))
				// The genetic racer must report into the job's recorder.
				if n := rec.Counters().Get(obs.GeneticEvaluations); n == 0 {
					t.Fatal("racing job recorded no genetic evaluations")
				}
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("recording-on stream differs from recording-off\non:\n%s\noff:\n%s", got, want)
			}
			// Guard against a vacuous pass: the recorder must actually have
			// observed the run.
			if len(rec.Spans()) == 0 {
				t.Fatal("recorder captured no spans")
			}
			if len(rec.Counters().Map()) == 0 {
				t.Fatal("recorder captured no counters")
			}
		})
	}
}

// TestQueueWaitSlowJobAhead pins the queue-wait accounting: with one
// worker, a fast job submitted behind a slow one must report a queue
// wait of roughly the slow job's run time, while the slow job itself
// reports (almost) none.
func TestQueueWaitSlowJobAhead(t *testing.T) {
	q := NewQueue(8, 1, 1)
	defer q.Close()

	const slowRun = 120 * time.Millisecond
	started := make(chan struct{})
	slow, err := q.Submit(context.Background(), "a", func(context.Context) {
		close(started)
		time.Sleep(slowRun)
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started // the fast job is submitted strictly after slow starts running
	fast, err := q.Submit(context.Background(), "b", func(context.Context) {})
	if err != nil {
		t.Fatal(err)
	}
	<-fast.Done()

	if w := slow.QueueWait(); w > slowRun/2 {
		t.Fatalf("slow job queue wait %v, want near zero", w)
	}
	// The fast job waited for the slow job's remaining run time; allow
	// generous slack below for scheduling delays between close(started)
	// and Submit.
	if w := fast.QueueWait(); w < slowRun/2 {
		t.Fatalf("fast job queue wait %v, want ≳%v (the slow job's run time)", w, slowRun)
	}
}

// TestQueueWaitTenantBudget pins that time a job spends held back by its
// tenant's concurrency budget is accounted as queue wait, not compute:
// with two free workers but a budget of one, the same tenant's second
// job waits for the first one's full run time.
func TestQueueWaitTenantBudget(t *testing.T) {
	q := NewQueue(8, 2, 1)
	defer q.Close()

	const firstRun = 120 * time.Millisecond
	started := make(chan struct{})
	first, err := q.Submit(context.Background(), "tenant", func(context.Context) {
		close(started)
		time.Sleep(firstRun)
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	second, err := q.Submit(context.Background(), "tenant", func(context.Context) {})
	if err != nil {
		t.Fatal(err)
	}
	<-second.Done()
	<-first.Done()

	if w := second.QueueWait(); w < firstRun/2 {
		t.Fatalf("budget-held job queue wait %v, want ≳%v (a worker was free the whole time)", w, firstRun)
	}
}

// TestHealthzReadiness pins the liveness/readiness split: readiness is
// 503 with a JSON reason while the store is loading or the queue is
// saturated, 200 otherwise; the liveness probe (?live=1) is always 200.
func TestHealthzReadiness(t *testing.T) {
	srv := NewServer(Config{QueueCapacity: 1, Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, map[string]string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]string
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}

	if st, _ := get("/healthz"); st != http.StatusOK {
		t.Fatalf("ready server: status %d, want 200", st)
	}

	// Store still loading → unready with a reason, but alive.
	srv.storeReady.Store(false)
	st, body := get("/healthz")
	if st != http.StatusServiceUnavailable {
		t.Fatalf("loading store: status %d, want 503", st)
	}
	if body["status"] != "unready" || !strings.Contains(body["reason"], "store") {
		t.Fatalf("loading store: body %v, want unready + store reason", body)
	}
	if st, _ := get("/healthz?live=1"); st != http.StatusOK {
		t.Fatalf("liveness while unready: status %d, want 200", st)
	}
	srv.storeReady.Store(true)

	// Saturate the queue: one job occupies the single worker, a second
	// fills the capacity-1 FIFO.
	release := make(chan struct{})
	started := make(chan struct{})
	blocker, err := srv.queue.Submit(context.Background(), "t", func(context.Context) {
		close(started)
		<-release
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	queued, err := srv.queue.Submit(context.Background(), "t", func(context.Context) {})
	if err != nil {
		t.Fatal(err)
	}
	st, body = get("/healthz")
	if st != http.StatusServiceUnavailable || !strings.Contains(body["reason"], "queue") {
		t.Fatalf("saturated queue: status %d body %v, want 503 + queue reason", st, body)
	}
	close(release)
	<-blocker.Done()
	<-queued.Done()
	if st, _ := get("/healthz"); st != http.StatusOK {
		t.Fatalf("drained server: status %d, want 200", st)
	}
}

// TestPromMetricsScrape runs one served job and scrapes GET /metrics,
// checking the required metric families exist in the exposition.
func TestPromMetricsScrape(t *testing.T) {
	dfg := kernelDFG(t, kernels.Fbital00())
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, body := postSelect(t, ts, dfg, ""); status != http.StatusOK {
		t.Fatalf("select status %d: %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type %q, want text/plain exposition", ct)
	}
	for _, family := range []string{
		"isegend_queue_depth",
		"isegend_queue_accepted_total",
		"isegend_queue_completed_total",
		"isegend_ready",
		"isegend_cache_hits_total",
		"isegend_cache_misses_total",
		"isegend_kl_toggles_total",
		"isegend_kl_probes_total",
		"isegend_exact_explored_total",
		"isegend_span_drops_total",
		"isegend_job_duration_seconds_bucket",
		"isegend_queue_wait_seconds_bucket",
		"isegend_goroutines",
		"isegend_heap_alloc_bytes",
		"isegend_gc_cycles_total",
	} {
		if !strings.Contains(text, "\n"+family) && !strings.HasPrefix(text, family) {
			t.Errorf("exposition missing family %s", family)
		}
	}
	// The default isegen job must have produced real K-L work.
	if strings.Contains(text, "isegend_kl_toggles_total 0\n") {
		t.Error("kl_toggles_total is zero after an isegen job")
	}
	if !strings.Contains(text, `isegend_job_duration_seconds_count{engine="isegen"} 1`) {
		t.Error("job duration histogram missing engine=\"isegen\" series with count 1")
	}
	if !strings.Contains(text, `isegend_queue_wait_seconds_count{tenant="default"} 1`) {
		t.Error("queue wait histogram missing tenant=\"default\" series with count 1")
	}
}

// TestMetricsRuntimeAndSearchSections pins the expanded /v1/metrics
// document: runtime gauges are live, engine counters accumulate, and the
// latency/queue-wait histograms carry the fixed bucket boundaries so
// shard aggregation stays a vector add.
func TestMetricsRuntimeAndSearchSections(t *testing.T) {
	dfg := kernelDFG(t, kernels.Fbital00())
	srv := NewServer(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, body := postSelect(t, ts, dfg, fmt.Sprintf("?workers=%d", 2)); status != http.StatusOK {
		t.Fatalf("select status %d: %s", status, body)
	}
	m := fetchMetrics(t, ts)

	if m.Runtime.Goroutines <= 0 {
		t.Errorf("runtime.goroutines = %d, want > 0", m.Runtime.Goroutines)
	}
	if m.Runtime.HeapAllocBytes == 0 || m.Runtime.HeapSysBytes == 0 {
		t.Errorf("runtime heap gauges zero: %+v", m.Runtime)
	}
	if m.Search.Counters["kl_toggles"] <= 0 {
		t.Errorf("search.counters[kl_toggles] = %d, want > 0", m.Search.Counters["kl_toggles"])
	}
	if m.Search.Counters["kl_probes"] <= 0 {
		t.Errorf("search.counters[kl_probes] = %d, want > 0", m.Search.Counters["kl_probes"])
	}
	lat, ok := m.Search.LatencySeconds["isegen"]
	if !ok || lat.Count != 1 {
		t.Fatalf("latency_seconds[isegen] = %+v (ok=%v), want count 1", lat, ok)
	}
	if len(lat.Buckets) != len(obs.DefaultBuckets) || len(lat.Counts) != len(obs.DefaultBuckets)+1 {
		t.Errorf("histogram shape buckets=%d counts=%d, want %d/%d",
			len(lat.Buckets), len(lat.Counts), len(obs.DefaultBuckets), len(obs.DefaultBuckets)+1)
	}
	wait, ok := m.Search.QueueWaitSeconds["default"]
	if !ok || wait.Count != 1 {
		t.Fatalf("queue_wait_seconds[default] = %+v (ok=%v), want count 1", wait, ok)
	}
}
