package obs

import (
	"maps"
	"sync"
	"time"
)

// DefaultBuckets are the fixed latency/queue-wait bucket boundaries in
// seconds. They are part of the metrics contract: every histogram this
// package produces uses exactly these boundaries, so aggregating
// histograms across shards (the planned distributed tier) is a vector
// add of the count arrays — no re-bucketing, no interpolation. Do not
// change them without versioning the metrics schema.
var DefaultBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30,
}

// numBuckets mirrors len(DefaultBuckets); the init check below keeps the
// two in sync.
const numBuckets = 14

func init() {
	if len(DefaultBuckets) != numBuckets {
		panic("obs: numBuckets out of sync with DefaultBuckets")
	}
}

// Histogram counts observations into DefaultBuckets. It is not
// goroutine-safe on its own; Aggregate serializes access.
type Histogram struct {
	counts [numBuckets + 1]int64
	count  int64
	sumNs  int64
}

// Observe adds one duration.
func (h *Histogram) Observe(d time.Duration) {
	s := d.Seconds()
	i := 0
	for i < len(DefaultBuckets) && s > DefaultBuckets[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sumNs += d.Nanoseconds()
}

// Snapshot copies the histogram into its serializable form.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Buckets:    DefaultBuckets,
		Counts:     make([]int64, len(h.counts)),
		Count:      h.count,
		SumSeconds: float64(h.sumNs) / 1e9,
	}
	copy(s.Counts, h.counts[:])
	return s
}

// HistogramSnapshot is the wire form of a histogram: per-bucket
// (non-cumulative) counts aligned with Buckets, plus one overflow slot —
// len(Counts) == len(Buckets)+1, with the last slot counting
// observations above the largest boundary (+Inf). Two snapshots with
// equal Buckets merge by adding Counts, Count and SumSeconds.
type HistogramSnapshot struct {
	Buckets    []float64 `json:"buckets_seconds"`
	Counts     []int64   `json:"counts"`
	Count      int64     `json:"count"`
	SumSeconds float64   `json:"sum_seconds"`
}

// Aggregate is the server-side cumulative view: counters summed over
// every completed job, the same counters split by engine, the most
// recently observed job's counters, per-engine job-latency histograms,
// and per-tenant queue-wait histograms. One mutex guards it all — folds
// happen once per job, never on a hot path.
type Aggregate struct {
	mu        sync.Mutex
	counters  CounterSnapshot
	engines   map[string]CounterSnapshot // by engine (algo)
	last      CounterSnapshot
	spanDrops int64
	latency   map[string]*Histogram // by engine (algo)
	wait      map[string]*Histogram // by tenant
}

// NewAggregate returns an empty aggregate.
func NewAggregate() *Aggregate {
	return &Aggregate{
		engines: make(map[string]CounterSnapshot),
		latency: make(map[string]*Histogram),
		wait:    make(map[string]*Histogram),
	}
}

// ObserveJob folds one completed job in: the recorder's counters (into
// the totals, under its engine, and as the last job's), its span drops,
// the job's run latency under its engine, and its queue wait under its
// tenant. rec may be nil (counters skipped).
func (a *Aggregate) ObserveJob(rec *Recorder, engine, tenant string, latency, wait time.Duration) {
	c := rec.Counters()
	drops := rec.Dropped()
	a.mu.Lock()
	defer a.mu.Unlock()
	a.counters.Add(c)
	e := a.engines[engine]
	e.Add(c)
	a.engines[engine] = e
	a.last = c
	a.spanDrops += drops
	h := a.latency[engine]
	if h == nil {
		h = &Histogram{}
		a.latency[engine] = h
	}
	h.Observe(latency)
	h = a.wait[tenant]
	if h == nil {
		h = &Histogram{}
		a.wait[tenant] = h
	}
	h.Observe(wait)
}

// AggregateSnapshot is a consistent point-in-time copy of an Aggregate:
// every field reflects the same set of observed jobs.
type AggregateSnapshot struct {
	Counters  CounterSnapshot            // summed over every job
	Engines   map[string]CounterSnapshot // summed per engine
	LastJob   CounterSnapshot            // the most recently observed job's
	SpanDrops int64
	Latency   map[string]HistogramSnapshot // job latency by engine
	QueueWait map[string]HistogramSnapshot // queue wait by tenant
}

// Snapshot copies the whole aggregate under one lock.
func (a *Aggregate) Snapshot() AggregateSnapshot {
	a.mu.Lock()
	defer a.mu.Unlock()
	return AggregateSnapshot{
		Counters:  a.counters,
		Engines:   maps.Clone(a.engines),
		LastJob:   a.last,
		SpanDrops: a.spanDrops,
		Latency:   snapshotMap(a.latency),
		QueueWait: snapshotMap(a.wait),
	}
}

// Counters snapshots the cumulative counters.
func (a *Aggregate) Counters() CounterSnapshot { return a.Snapshot().Counters }

// SpanDrops reports the cumulative span-ring overwrites across jobs.
func (a *Aggregate) SpanDrops() int64 { return a.Snapshot().SpanDrops }

// Latency snapshots the per-engine job-latency histograms.
func (a *Aggregate) Latency() map[string]HistogramSnapshot { return a.Snapshot().Latency }

// QueueWait snapshots the per-tenant queue-wait histograms.
func (a *Aggregate) QueueWait() map[string]HistogramSnapshot { return a.Snapshot().QueueWait }

func snapshotMap(m map[string]*Histogram) map[string]HistogramSnapshot {
	out := make(map[string]HistogramSnapshot, len(m))
	for k, h := range m {
		out[k] = h.Snapshot()
	}
	return out
}
