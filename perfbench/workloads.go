package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"strings"

	"repro/internal/dfggen"
	"repro/internal/dfgio"
	"repro/internal/ir"
	"repro/internal/kernels"
	"repro/internal/search"
	"repro/internal/service"
)

// storeMode says what persistent store the daemon (and the traced
// pipeline) runs over.
type storeMode int

const (
	storeNone storeMode = iota // memory-only cost cache (isegend's default)
	storeWarm                  // a store filled by the untimed reference pass
	storeCold                  // an empty store directory, fresh per run
)

// workload is one traffic mix: which engine the uploads run on, what store
// the daemon starts over, and how the uploads are drawn from the seed.
// BENCHMARK.json records why each was chosen.
type workload struct {
	name  string
	algo  string
	store storeMode
	// pool is how many distinct uploads the clients rotate over; 0 marks
	// a workload whose uploads never repeat within a run.
	pool int
	// rate bounds a never-repeating workload's throughput: it gets rate
	// uploads per measured second pre-generated, well above what the
	// daemon reaches on it.
	rate int
	// refs is how many leading uploads of a never-repeating workload get
	// their reference computed before timing; speedup_geomean is taken
	// over them (rotation workloads use their whole pool). The rest are
	// computed after the timed window, once it is known which were sent.
	refs int
	// app returns upload i for a seed.
	app func(seed int64, i int) *ir.Application
	// weight is how often upload i appears in each pass of a client's
	// rotation (nil: once).
	weight func(i int) int
}

var workloads = []workload{
	{
		name: "paper-kernels", algo: "isegen", store: storeWarm, pool: 8,
		app:    paperKernel,
		weight: aesMajority,
	},
	{
		name: "racing-small", algo: "racing", rate: 150, refs: 256,
		app: func(seed int64, i int) *ir.Application { return generated(seed, i, smallShape) },
	},
	{
		name: "gen-cold", algo: "isegen", store: storeCold, rate: 64, refs: 64,
		app: func(seed int64, i int) *ir.Application { return generated(seed, i, mediumShape) },
	},
	{
		name: "bulk-upload", algo: "exact", pool: 48,
		app: func(seed int64, i int) *ir.Application { return generated(seed, i, bulkShape) },
	},
}

func findWorkload(name string) (workload, error) {
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// paperKernel returns AES for i == 0 and the Figure 4 applications after
// it; the seed only orders each client's rotation over them.
func paperKernel(_ int64, i int) *ir.Application {
	if i == 0 {
		return kernels.AES()
	}
	return kernels.All()[i-1].App
}

// aesMajority gives AES 9 of the 16 slots in each pass of a client's
// rotation, the Figure 4 kernels one each. With equal shares the median
// latency falls between two small kernels, whose latencies the other
// client's AES job spreads over scheduler time slices, and it jumps from
// run to run; with AES the majority the median sits inside AES's own
// latencies.
func aesMajority(i int) int {
	if i == 0 {
		return 9
	}
	return 1
}

// shape is a generated upload's size range: blocks per application and
// nodes per block, both inclusive.
type shape struct{ minBlocks, maxBlocks, minNodes, maxNodes int }

var (
	smallShape  = shape{6, 10, 12, 16}
	mediumShape = shape{2, 4, 100, 300}
	// bulkShape stops at 4096 nodes, dfggen's cap on a block.
	bulkShape = shape{2, 4, 2000, 4096}
)

// golden is the fractional step of the sizes' low-discrepancy sequence.
const golden = 0.6180339887498949

// generated builds upload i from dfggen blocks wired by upload i's own
// seed, derived from the workload seed and i, so upload i is the same for a
// seed however many are drawn. Sizes are stratified rather than drawn:
// block counts cycle through the range, and node counts follow a
// golden-ratio sequence offset by the seed, so any stretch of uploads
// covers the size range evenly and runs differ in wiring, not in how much
// work their sizes imply.
func generated(seed int64, i int, sh shape) *ir.Application {
	rng := dfggen.Seeded(mix(seed, i))
	p := dfggen.DefaultParams()
	offset := float64(uint64(mix(seed, -1))>>11) / (1 << 53)
	nb := sh.minBlocks + i%(sh.maxBlocks-sh.minBlocks+1)
	app := &ir.Application{Name: fmt.Sprintf("upload%d", i)}
	for j := 0; j < nb; j++ {
		_, frac := math.Modf(offset + golden*float64(i*sh.maxBlocks+j))
		p.MinNodes = sh.minNodes + int(frac*float64(sh.maxNodes-sh.minNodes+1))
		p.MaxNodes = p.MinNodes
		app.Blocks = append(app.Blocks, dfggen.Block(rng, p))
	}
	return app
}

// mix derives a per-upload seed (splitmix64 finalizer over seed and index).
func mix(seed int64, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(i+1)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// upload is one request body with what is needed to judge its response.
// The parsed application is not kept: bulk uploads parse to tens of MB,
// so checks re-parse the body one upload at a time.
type upload struct {
	id   int
	body []byte
	// ref holds the deterministic lines (block and summary records) of an
	// in-process service.Run on the same input; nil until computed.
	ref     []byte
	speedup float64
}

func newUpload(id int, app *ir.Application) (*upload, error) {
	var buf bytes.Buffer
	if err := dfgio.WriteApplication(&buf, app); err != nil {
		return nil, fmt.Errorf("serialize upload %d: %w", id, err)
	}
	return &upload{id: id, body: buf.Bytes()}, nil
}

// parse reads the body the way the daemon does, so node numbering matches
// the response.
func (u *upload) parse() (*ir.Application, error) {
	app, err := dfgio.ParseApplication("upload", bytes.NewReader(u.body))
	if err != nil {
		return nil, fmt.Errorf("parse upload %d: %w", u.id, err)
	}
	return app, nil
}

// params is the job configuration the served query string also selects:
// the paper's defaults with the workload's engine.
func (w workload) params() service.Params {
	p := service.DefaultParams()
	p.Algo = w.algo
	return p
}

func (w workload) query() string { return "/v1/select?algo=" + w.algo }

// computeRef runs the upload in process through service.Run, the path the
// daemon shares, and keeps the deterministic part of the stream.
func computeRef(u *upload, app *ir.Application, p service.Params, cache *search.CostCache) error {
	var out bytes.Buffer
	if err := service.Run(context.Background(), app, p, cache, service.NDJSONEmitter(&out)); err != nil {
		return fmt.Errorf("reference run of upload %d: %w", u.id, err)
	}
	u.ref = deterministicLines(out.Bytes())
	recs, err := decodeStream(u.ref)
	if err != nil {
		return fmt.Errorf("reference stream of upload %d: %w", u.id, err)
	}
	if recs.summary == nil {
		return fmt.Errorf("reference stream of upload %d has no summary", u.id)
	}
	u.speedup = recs.summary.Speedup
	return nil
}

// deterministicLines drops the racing engine's interleaved frontier
// records, whose position in the stream depends on timing by design; the
// block records and the summary must match byte for byte.
func deterministicLines(stream []byte) []byte {
	var out []byte
	for _, line := range bytes.SplitAfter(stream, []byte("\n")) {
		if len(line) == 0 || bytes.HasPrefix(line, []byte(`{"type":"frontier"`)) {
			continue
		}
		out = append(out, line...)
	}
	return out
}

// Wire records, decoded by the benchmark's own types so the checks do not
// lean on the service package's definitions.
type selRecord struct {
	ISE       int   `json:"ise"`
	Nodes     []int `json:"nodes"`
	NumIn     int   `json:"num_in"`
	NumOut    int   `json:"num_out"`
	Instances []struct {
		Block int   `json:"block"`
		Nodes []int `json:"nodes"`
	} `json:"instances"`
}

type blockRecord struct {
	Block      int         `json:"block"`
	Name       string      `json:"name"`
	Selections []selRecord `json:"selections"`
}

type summaryRecord struct {
	Blocks  int     `json:"blocks"`
	ISEs    int     `json:"ises"`
	Speedup float64 `json:"speedup"`
}

type stream struct {
	blocks   []blockRecord
	summary  *summaryRecord
	after    int    // records seen after the summary
	errorMsg string // message of an in-stream error record
}

// decodeStream splits an NDJSON response into records. A final line without
// its newline is a truncated stream.
func decodeStream(b []byte) (*stream, error) {
	s := &stream{}
	if len(b) > 0 && b[len(b)-1] != '\n' {
		return nil, fmt.Errorf("truncated stream: last line has no newline")
	}
	for _, line := range bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var head struct {
			Type  string `json:"type"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &head); err != nil {
			return nil, fmt.Errorf("bad record %.80q: %w", line, err)
		}
		if s.summary != nil {
			s.after++
		}
		switch head.Type {
		case "block":
			var br blockRecord
			if err := json.Unmarshal(line, &br); err != nil {
				return nil, fmt.Errorf("bad block record: %w", err)
			}
			s.blocks = append(s.blocks, br)
		case "summary":
			var sr summaryRecord
			if err := json.Unmarshal(line, &sr); err != nil {
				return nil, fmt.Errorf("bad summary record: %w", err)
			}
			if s.summary == nil {
				s.summary = &sr
			}
		case "frontier":
		case "error":
			s.errorMsg = head.Error
		default:
			return nil, fmt.Errorf("unknown record type %q", head.Type)
		}
	}
	return s, nil
}
