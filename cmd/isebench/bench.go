package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
)

// benchRecord is one measured suite in the JSON benchmark file: wall time
// and allocation counts for a single iteration (-benchtime=1x semantics,
// the same protocol as the CI benchmark smoke step), plus the
// engine-internal counter deltas observed during the run — work measures
// (nodes explored, toggles, probes) that stay meaningful when wall-clock
// is noisy. Counters are recorded with a counters-only recorder (span
// recording disabled), whose overhead is a handful of atomic adds per
// trajectory/search, so allocs/op stays comparable with older files.
type benchRecord struct {
	Name        string           `json:"name"`
	NsPerOp     int64            `json:"ns_per_op"`
	AllocsPerOp uint64           `json:"allocs_per_op"`
	BytesPerOp  uint64           `json:"bytes_per_op"`
	Counters    map[string]int64 `json:"counters,omitempty"`
}

// benchFile is the BENCH_<rev>.json schema: enough provenance to compare
// two revisions' trajectories honestly (CPU count matters — on a 1-CPU
// container the parallel suites show parity with the sequential ones).
type benchFile struct {
	Schema    int           `json:"schema"`
	Rev       string        `json:"rev"`
	GoVersion string        `json:"go_version"`
	CPUs      int           `json:"cpus"`
	BenchTime string        `json:"bench_time"`
	Benches   []benchRecord `json:"benches"`
}

// gitRev resolves the current commit (short) by reading .git directly, so
// the harness needs no git binary; "dev" when unavailable.
func gitRev() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "dev"
	}
	ref := strings.TrimSpace(string(head))
	if h, ok := strings.CutPrefix(ref, "ref: "); ok {
		b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(h)))
		if err == nil {
			ref = strings.TrimSpace(string(b))
		} else if packed := packedRef(h); packed != "" {
			// Fresh clones and gc'd repositories keep refs in
			// .git/packed-refs rather than loose files.
			ref = packed
		} else {
			return "dev"
		}
	}
	if len(ref) < 12 {
		return "dev"
	}
	return ref[:12]
}

// packedRef looks a ref name up in .git/packed-refs ("<hash> <refname>"
// lines; '#' comments and '^' peel lines skipped).
func packedRef(name string) string {
	b, err := os.ReadFile(".git/packed-refs")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if line == "" || line[0] == '#' || line[0] == '^' {
			continue
		}
		hash, ref, ok := strings.Cut(line, " ")
		if ok && strings.TrimSpace(ref) == name {
			return hash
		}
	}
	return ""
}

// runBenchJSON is the `isebench -json` mode: measure every suite once and
// write BENCH_<rev>.json (or `out`; "-" for stdout). The checked-in
// BENCH_baseline.json is one of these files, seeding the repository's
// tracked perf trajectory.
func runBenchJSON(rev, out string) error {
	if rev == "" {
		rev = gitRev()
	}
	bf := benchFile{
		Schema:    1,
		Rev:       rev,
		GoVersion: runtime.Version(),
		CPUs:      runtime.GOMAXPROCS(0),
		BenchTime: "1x",
	}
	for _, s := range experiments.Suites() {
		// Counters-only recorder: span recording disabled (cap 0), so the
		// span path stays out of the measured allocation counts and only
		// the per-flush atomic adds ride along.
		or := obs.NewRecorder(0)
		ctx := obs.WithRecorder(context.Background(), or)
		// A GC first stabilizes the Mallocs counter against leftover
		// garbage.
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		start := time.Now()
		err := s.Run(ctx)
		dur := time.Since(start)
		runtime.ReadMemStats(&after)
		if err != nil {
			return fmt.Errorf("%s: %w", s.Name, err)
		}
		rec := benchRecord{
			Name:        s.Name,
			NsPerOp:     dur.Nanoseconds(),
			AllocsPerOp: after.Mallocs - before.Mallocs,
			BytesPerOp:  after.TotalAlloc - before.TotalAlloc,
			Counters:    or.Counters().Map(),
		}
		fmt.Fprintf(os.Stderr, "%-24s %12d ns/op %10d allocs/op %12d B/op\n",
			rec.Name, rec.NsPerOp, rec.AllocsPerOp, rec.BytesPerOp)
		bf.Benches = append(bf.Benches, rec)
	}
	var w io.Writer
	switch out {
	case "-":
		w = os.Stdout
	case "":
		out = "BENCH_" + rev + ".json"
		fallthrough
	default:
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
		fmt.Fprintln(os.Stderr, "writing", out)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(bf)
}
