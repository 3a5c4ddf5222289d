package service

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/kernels"
	"repro/internal/obs"
	"repro/internal/search"
)

// metricsJobAlgos is the job set the metrics-surface tests run: the
// paper's flow, both exact baselines, and the racing meta-engine, so
// every section of both documents carries real values.
var metricsJobAlgos = []string{"isegen", "exact", "iterative", "racing"}

// serveMetricsJobs starts a server over a temp-dir store and runs one job
// of each algo on conven00, one at a time. The caller closes both.
func serveMetricsJobs(t *testing.T, algos ...string) (*Server, *httptest.Server) {
	t.Helper()
	store, err := search.NewStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(Config{Cache: search.NewPersistentCostCache(store)})
	ts := httptest.NewServer(srv.Handler())
	dfg := kernelDFG(t, kernels.Conven00())
	for _, algo := range algos {
		if status, body := postSelect(t, ts, dfg, "?algo="+algo); status != http.StatusOK {
			t.Fatalf("%s job: status %d: %s", algo, status, body)
		}
	}
	return srv, ts
}

func getBody(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// checkGolden compares sorted lines against testdata/<name>.
func checkGolden(t *testing.T, name string, got []string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(got)
	if g := strings.Join(got, "\n") + "\n"; g != string(want) {
		t.Errorf("testdata/%s mismatch\n--- got ---\n%s--- want ---\n%s", name, g, want)
	}
}

// jsonKeys lists the object keys of one metrics section as "section.key".
func jsonKeys(t *testing.T, section string, raw json.RawMessage) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("section %s: %v", section, err)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, section+"."+k)
	}
	return keys
}

// TestMetricsSurfaceInventory pins the served metrics surface: after one
// job per engine over a store-backed server, the Prometheus exposition's
// HELP/TYPE lines and the key set of every /v1/metrics section must match
// the checked-in goldens byte for byte, however the two documents are
// assembled.
func TestMetricsSurfaceInventory(t *testing.T) {
	srv, ts := serveMetricsJobs(t, metricsJobAlgos...)
	defer srv.Close()
	defer ts.Close()

	var headers []string
	for _, line := range strings.Split(string(getBody(t, ts.URL+"/metrics")), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			headers = append(headers, line)
		}
	}
	checkGolden(t, "metrics_prom_headers.golden", headers)

	var doc map[string]json.RawMessage
	if err := json.Unmarshal(getBody(t, ts.URL+"/v1/metrics"), &doc); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range doc {
		keys = append(keys, k)
	}
	for _, section := range []string{"queue", "cache", "racing", "runtime", "search"} {
		keys = append(keys, jsonKeys(t, section, doc[section])...)
	}
	var cache map[string]json.RawMessage
	if err := json.Unmarshal(doc["cache"], &cache); err != nil {
		t.Fatal(err)
	}
	keys = append(keys, jsonKeys(t, "cache.store", cache["store"])...)
	checkGolden(t, "metrics_json_keys.golden", keys)
}

// promSamples parses an exposition into series → value ("name" or
// "name{labels}"). A series that appears twice must carry one value.
func promSamples(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		series := line[:i]
		if old, dup := out[series]; dup && old != v {
			t.Errorf("series %s exported twice with different values: %g, %g", series, old, v)
		}
		out[series] = v
	}
	return out
}

// TestMetricsJSONMatchesPrometheus pins the one-snapshot contract: with
// no job running, every number present in both /v1/metrics and /metrics
// is equal, and the racing section's derived values keep their
// identities with the engine counters they come from. Runtime gauges are
// left out: they move between two scrapes by design.
func TestMetricsJSONMatchesPrometheus(t *testing.T) {
	srv, ts := serveMetricsJobs(t, metricsJobAlgos...)
	defer srv.Close()
	defer ts.Close()

	m := fetchMetrics(t, ts)
	prom := promSamples(t, string(getBody(t, ts.URL+"/metrics")))
	check := func(series string, want int64) {
		t.Helper()
		got, ok := prom[series]
		if !ok {
			t.Errorf("/metrics lacks %s", series)
		} else if got != float64(want) {
			t.Errorf("%s = %g, /v1/metrics says %d", series, got, want)
		}
	}
	q := m.Queue
	check("isegend_queue_depth", int64(q.Depth))
	check("isegend_queue_active_jobs", int64(q.Active))
	check("isegend_queue_accepted_total", q.Accepted)
	check("isegend_queue_rejected_total", q.Rejected)
	check("isegend_queue_completed_total", q.Completed)
	check("isegend_queue_dropped_total", q.Dropped)
	check("isegend_queue_panics_total", q.Panics)
	check("isegend_cache_hits_total", m.Cache.Hits)
	check("isegend_cache_misses_total", m.Cache.Misses)
	check("isegend_cache_flush_errors_total", m.Cache.FlushErrors)
	st := m.Cache.Store
	if st == nil {
		t.Fatal("/v1/metrics lacks cache.store with a store attached")
	}
	degraded := int64(0)
	if st.Degraded {
		degraded = 1
	}
	check("isegend_store_degraded", degraded)
	check("isegend_store_bytes", st.CurrentBytes)
	check("isegend_store_corrupt_total", st.Corrupt)
	check("isegend_store_write_errors_total", st.WriteErrors)
	check("isegend_store_breaker_trips_total", st.BreakerTrips)
	check("isegend_store_probes_total", st.Probes)
	check("isegend_store_recoveries_total", st.Recoveries)
	check("isegend_racing_jobs_total", m.Racing.Jobs)
	check("isegend_racing_bound_raises_total", m.Racing.BoundRaises)
	check("isegend_span_drops_total", m.Search.SpanDrops)
	for _, c := range obs.AllCounters() {
		check("isegend_"+c.String()+"_total", m.Search.Counters[c.String()])
	}
	for engine, h := range m.Search.LatencySeconds {
		check(`isegend_job_duration_seconds_count{engine="`+engine+`"}`, h.Count)
	}
	for tenant, h := range m.Search.QueueWaitSeconds {
		check(`isegend_queue_wait_seconds_count{tenant="`+tenant+`"}`, h.Count)
	}

	// Derived identities: the racing section is a view of the engine
	// counters, not a second tally.
	if m.Racing.Jobs != 1 {
		t.Errorf("racing.jobs = %d after one racing job", m.Racing.Jobs)
	}
	if a, b := prom["isegend_racing_bound_raises_total"], prom["isegend_racing_seed_publications_total"]; a != b {
		t.Errorf("racing_bound_raises_total %g != racing_seed_publications_total %g", a, b)
	}
	if got, want := m.Racing.ExploredSeeded+m.Racing.ExploredUnseeded, m.Search.Counters["exact_explored"]; got != want {
		t.Errorf("explored_seeded+explored_unseeded = %d, exact_explored = %d", got, want)
	}
	if m.Cache.FlushErrors != m.Search.Counters["store_flush_failures"] {
		t.Errorf("flush_errors %d != store_flush_failures %d", m.Cache.FlushErrors, m.Search.Counters["store_flush_failures"])
	}

	// After only unseeded exact work, explored_unseeded is the whole
	// exact_explored counter.
	srv2, ts2 := serveMetricsJobs(t, "exact", "iterative")
	defer srv2.Close()
	defer ts2.Close()
	m2 := fetchMetrics(t, ts2)
	if m2.Racing.ExploredUnseeded <= 0 || m2.Racing.ExploredUnseeded != m2.Search.Counters["exact_explored"] {
		t.Errorf("explored_unseeded = %d, exact_explored = %d after exact+iterative jobs",
			m2.Racing.ExploredUnseeded, m2.Search.Counters["exact_explored"])
	}
	if m2.Racing.Jobs != 0 || m2.Racing.ExploredSeeded != 0 {
		t.Errorf("racing section moved without a racing job: %+v", m2.Racing)
	}
}
