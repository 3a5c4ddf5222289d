package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// output is one upload sent and what came back, served or in process.
type output struct {
	up      *upload
	status  int
	body    []byte
	err     error
	latency time.Duration
}

// closedLoop drives the daemon from one client per feed, each with its own
// tenant and connection, each sending its next upload only after the
// previous response stream has ended. A client stops taking uploads after
// dur (or when its feed runs dry); closedLoop returns once every in-flight
// upload has finished, with the elapsed time.
func closedLoop(addr, query string, dur time.Duration, feeds []func() *upload) ([]output, time.Duration) {
	var (
		mu  sync.Mutex
		all []output
		wg  sync.WaitGroup
	)
	start := time.Now()
	for c, next := range feeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			hc := &http.Client{Transport: tr}
			tenant := fmt.Sprintf("bench-client-%d", c)
			var mine []output
			for time.Since(start) < dur {
				u := next()
				if u == nil {
					break
				}
				mine = append(mine, send(hc, "http://"+addr+query, tenant, u))
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return all, time.Since(start)
}

// send posts one upload and reads the whole NDJSON stream; the latency runs
// from just before the first body byte is written to the last byte read.
func send(hc *http.Client, url, tenant string, u *upload) output {
	o := output{up: u}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(u.body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("X-Tenant", tenant)
	req.Header.Set("Content-Type", "text/plain")
	start := time.Now()
	resp, err := hc.Do(req)
	if err != nil {
		o.err = err
		return o
	}
	o.status = resp.StatusCode
	o.body, o.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	o.latency = time.Since(start)
	return o
}

// tally is the verdict over a run's outputs.
type tally struct {
	attempted, ok, wrong int
	latencies            []float64 // ms of the successful outputs, ascending
	firstFailure         string
}

// checkAll judges every output. Failures are transport or pipeline
// errors, non-200 statuses, in-stream error records, truncated streams, and
// oracle or reference mismatches; the last two are wrong answers. Outputs
// are grouped by upload so each body is parsed once, and an upload without
// a reference gets one first.
func (b *bench) checkAll(outs []output) (tally, error) {
	t := tally{attempted: len(outs)}
	fail := func(u *upload, err error) {
		if t.firstFailure == "" {
			t.firstFailure = fmt.Sprintf("upload %d: %v", u.id, err)
		}
	}
	byUp := map[*upload][]output{}
	var ups []*upload
	for _, o := range outs {
		if byUp[o.up] == nil {
			ups = append(ups, o.up)
		}
		byUp[o.up] = append(byUp[o.up], o)
	}
	sort.Slice(ups, func(i, j int) bool { return ups[i].id < ups[j].id })
	p := b.w.params()
	for _, u := range ups {
		app, err := u.parse()
		if err != nil {
			return t, err
		}
		if u.ref == nil {
			if err := b.reference(u, app); err != nil {
				return t, err
			}
		}
		for _, o := range byUp[u] {
			switch {
			case o.err != nil:
				fail(u, o.err)
			case o.status != http.StatusOK:
				fail(u, fmt.Errorf("status %d: %.200s", o.status, o.body))
			default:
				wrong, err := checkResponse(u, app, o.body, p.MaxIn, p.MaxOut)
				if err != nil {
					if wrong {
						t.wrong++
					}
					fail(u, err)
					continue
				}
				t.ok++
				t.latencies = append(t.latencies, float64(o.latency)/float64(time.Millisecond))
			}
		}
	}
	sort.Float64s(t.latencies)
	return t, nil
}
