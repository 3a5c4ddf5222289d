// Command perfbench is the repository's end-to-end benchmark. It starts the
// real isegend binary as a child process, drives it over loopback from two
// closed-loop clients (each with its own X-Tenant, each sending its next
// upload only once the previous NDJSON stream has ended), checks every
// response, and prints the served metrics. With -trace 1 it instead runs
// the handler's pipeline in process under an obs.Recorder and prints
// per-layer metrics folded from the spans and counters.
//
// Usage (from the repository root, through the launcher that builds both
// binaries):
//
//	bash perfbench/run.sh --workload gen-cold --seed 3 --seconds 10 --trace 0
//
// The last line of standard output is the result object
// {"correct","attempted","failed","metrics"}; the line before it carries
// provenance (CPU, GOMAXPROCS, Go version) and run details. README.md lists
// the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/ir"
	"repro/internal/search"
)

const (
	clients = 2
	// setups is how many times a run starts the daemon to time set-up;
	// the last start serves the run.
	setups = 15
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    int
	isegend  string
	workdir  string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 15, "measured seconds")
	flag.IntVar(&o.trace, "trace", 0, "1 = traced in-process run printing per-layer metrics")
	flag.StringVar(&o.isegend, "isegend", "", "isegend binary")
	flag.StringVar(&o.workdir, "workdir", os.TempDir(), "directory for per-run store directories")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(o options) error {
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	if o.seconds < 1 || (o.trace != 0 && o.trace != 1) {
		return fmt.Errorf("need -seconds >= 1 and -trace 0 or 1")
	}
	if o.trace == 0 && o.isegend == "" {
		return fmt.Errorf("need -isegend for a served run")
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(o.workdir, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b := &bench{w: w, o: o, dir: dir, details: map[string]any{}}
	if err := b.prepare(); err != nil {
		return err
	}
	var res *result
	if o.trace == 0 {
		res, err = b.served()
	} else {
		res, err = b.traced()
	}
	if err != nil {
		return err
	}
	b.details["workload"] = w.name
	b.details["seed"] = o.seed
	b.details["seconds"] = o.seconds
	b.details["trace"] = o.trace
	b.details["clients"] = clients
	line, err := json.Marshal(map[string]any{"provenance": provenance(), "details": b.details})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	line, err = json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// bench holds one run's inputs.
type bench struct {
	w    workload
	o    options
	dir  string
	ups  []*upload
	refs []*upload // uploads whose reference was computed before timing
	// refCache is the cost cache the in-process references share.
	refCache *search.CostCache
	details  map[string]any
}

func (b *bench) storeDir(name string) string { return b.dir + "/" + name }

// prepare generates every upload and computes the references before any
// timing starts. For the warm-store workload the reference pass runs over
// the store the daemon will start on, which is what warms it.
func (b *bench) prepare() error {
	n := b.w.pool
	if n == 0 {
		n = b.w.rate*b.o.seconds + b.w.refs
	}
	for i := 0; i < n; i++ {
		u, err := newUpload(i, b.w.app(b.o.seed, i))
		if err != nil {
			return err
		}
		b.ups = append(b.ups, u)
	}
	b.refs = b.ups
	if b.w.pool == 0 {
		b.refs = b.ups[:b.w.refs]
	}
	b.refCache = search.NewPersistentCostCache(nil)
	if b.w.store == storeWarm {
		st, err := search.NewStore(b.storeDir("warm"), search.DefaultStoreBytes)
		if err != nil {
			return err
		}
		b.refCache = search.NewPersistentCostCache(st)
	}
	for _, u := range b.refs {
		app, err := u.parse()
		if err != nil {
			return err
		}
		if err := b.reference(u, app); err != nil {
			return err
		}
	}
	if err := b.refCache.Flush(); err != nil {
		return err
	}
	// Later references start from an empty cache; dropping this one and
	// collecting now keeps the benchmark's own GC out of the timed window.
	b.refCache = search.NewPersistentCostCache(nil)
	runtime.GC()
	return nil
}

// reference computes u's in-process reference stream. All references of a
// run share one cost cache, as the daemon's jobs share its cache.
func (b *bench) reference(u *upload, app *ir.Application) error {
	return computeRef(u, app, b.w.params(), b.refCache)
}

// feeds returns one upload sequence per client. Rotation workloads give
// each client its own seeded shuffle of the pool, reshuffled on every pass
// through it: every upload keeps the same share of the traffic, while which
// uploads run side by side varies within a run rather than between seeds.
// Never-repeating workloads hand out each upload once, in order, from one
// shared counter; the feed returns nil when they run out.
func (b *bench) feeds() []func() *upload {
	fs := make([]func() *upload, clients)
	if b.w.pool == 0 {
		var k atomic.Int64
		for c := range fs {
			fs[c] = func() *upload {
				i := int(k.Add(1) - 1)
				if i >= len(b.ups) {
					return nil
				}
				return b.ups[i]
			}
		}
		return fs
	}
	var slots []*upload
	for i, u := range b.ups {
		n := 1
		if b.w.weight != nil {
			n = b.w.weight(i)
		}
		for ; n > 0; n-- {
			slots = append(slots, u)
		}
	}
	for c := range fs {
		rng := rand.New(rand.NewSource(mix(b.o.seed, -2-c)))
		var deck []int
		fs[c] = func() *upload {
			if len(deck) == 0 {
				deck = rng.Perm(len(slots))
			}
			u := slots[deck[0]]
			deck = deck[1:]
			return u
		}
	}
	return fs
}

func (b *bench) speedupGeomean() float64 {
	s := 0.0
	for _, u := range b.refs {
		s += math.Log(u.speedup)
	}
	return math.Exp(s / float64(len(b.refs)))
}

// daemonArgs are the flags beyond the defaults: the store directory for
// the workloads that run over one.
func (b *bench) daemonArgs() []string {
	switch b.w.store {
	case storeWarm:
		return []string{"-cache-dir", b.storeDir("warm")}
	case storeCold:
		return []string{"-cache-dir", b.storeDir("cold")}
	}
	return nil
}

// served measures the daemon end to end.
func (b *bench) served() (*result, error) {
	args := b.daemonArgs()
	var setup []float64
	var d *daemon
	for i := 0; i < setups; i++ {
		var err error
		if d, err = startDaemon(b.o.isegend, args...); err != nil {
			return nil, err
		}
		setup = append(setup, d.setup.Seconds())
		if i < setups-1 {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
	}
	cpu0, err := d.cpuTime()
	if err != nil {
		d.kill()
		return nil, err
	}
	m0, err := readMachineCPU()
	if err != nil {
		d.kill()
		return nil, err
	}
	atts, elapsed := closedLoop(d.addr, b.w.query(), time.Duration(b.o.seconds)*time.Second, b.feeds())
	cpu1, err := d.cpuTime()
	if err != nil {
		d.kill()
		return nil, err
	}
	m1, err := readMachineCPU()
	if err != nil {
		d.kill()
		return nil, err
	}
	// How much of the machine the run had: a busy share well above the
	// daemon's, or any steal, means something else competed for the CPUs.
	busy, steal := m0.shares(m1)
	b.details["machine_busy_frac"] = busy
	b.details["machine_steal_frac"] = steal
	b.details["daemon_cpu_frac"] = (cpu1 - cpu0).Seconds() / elapsed.Seconds() / float64(runtime.NumCPU())
	rss, err := d.peakRSS()
	if err != nil {
		d.kill()
		return nil, err
	}
	if err := d.stop(); err != nil {
		return nil, err
	}

	r, err := b.checkAll(atts)
	if err != nil {
		return nil, err
	}
	if r.ok == 0 {
		return nil, fmt.Errorf("no upload succeeded (%d attempted; first failure: %s)", r.attempted, r.firstFailure)
	}
	tail, pct := tailOf(r.latencies)
	b.details["latency_samples"] = len(r.latencies)
	b.details["latency_tail_percentile"] = pct
	b.details["latency_tail_beyond"] = min(tailBeyond, len(r.latencies)-1)
	b.details["distinct_uploads"] = distinct(atts)
	b.details["setup_samples_s"] = setup
	if r.firstFailure != "" {
		b.details["first_failure"] = r.firstFailure
	}
	return &result{
		Correct:   r.wrong == 0,
		Attempted: r.attempted,
		Failed:    r.attempted - r.ok,
		Metrics: map[string]metric{
			"jobs_per_s":      {float64(r.ok) / elapsed.Seconds(), "1/s"},
			"latency_p50_ms":  {median(r.latencies), "ms"},
			"latency_tail_ms": {tail, "ms"},
			"cpu_ms_per_job":  {float64(cpu1-cpu0) / float64(time.Millisecond) / float64(r.ok), "ms"},
			"peak_rss_mb":     {float64(rss) / (1 << 20), "MB"},
			"setup_s":         {median(setup), "s"},
			"speedup_geomean": {b.speedupGeomean(), "x"},
			"ok_frac":         {float64(r.ok) / float64(r.attempted), "ratio"},
		},
	}, nil
}

func distinct(atts []output) int {
	seen := map[int]bool{}
	for _, a := range atts {
		seen[a.up.id] = true
	}
	return len(seen)
}

// tailBeyond is how many samples the tail percentile leaves above it.
const tailBeyond = 10

// tailOf returns the highest sample with at least tailBeyond samples above
// it, and the percentile it sits at. sorted must be ascending.
func tailOf(sorted []float64) (value, percentile float64) {
	k := max(len(sorted)-1-tailBeyond, 0)
	return sorted[k], 100 * float64(k+1) / float64(len(sorted))
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// provenance names the machine class the numbers were taken on.
func provenance() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu_model":  cpu,
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}
