package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/search"
)

// referenceStream returns a generated upload with its real in-process
// stream, which the oracle must accept.
func referenceStream(t *testing.T) (*upload, *ir.Application) {
	t.Helper()
	w, err := findWorkload("gen-cold")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		u, err := newUpload(i, w.app(1, i))
		if err != nil {
			t.Fatal(err)
		}
		app, err := u.parse()
		if err != nil {
			t.Fatal(err)
		}
		if err := computeRef(u, app, w.params(), search.NewPersistentCostCache(nil)); err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(u.ref, []byte(`"nodes":[`)) {
			return u, app
		}
	}
	t.Fatal("no generated upload got a selection")
	return nil, nil
}

// editFirstSelection rewrites the first selection of the stream and
// returns the new stream with the index of the selection's block.
func editFirstSelection(t *testing.T, ref []byte, edit func(sel map[string]any)) ([]byte, int) {
	t.Helper()
	lines := strings.SplitAfter(string(ref), "\n")
	for i, line := range lines {
		var rec map[string]any
		if line == "" || json.Unmarshal([]byte(line), &rec) != nil || rec["type"] != "block" {
			continue
		}
		sels, _ := rec["selections"].([]any)
		if len(sels) == 0 {
			continue
		}
		edit(sels[0].(map[string]any))
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines[i] = string(b) + "\n"
		return []byte(strings.Join(lines, "")), int(rec["block"].(float64))
	}
	t.Fatal("stream has no selection")
	return nil, 0
}

func TestCheckResponseAcceptsReference(t *testing.T) {
	u, app := referenceStream(t)
	if wrong, err := checkResponse(u, app, u.ref, 4, 2); err != nil {
		t.Fatalf("reference rejected (wrong=%v): %v", wrong, err)
	}
}

// TestCheckResponseRejects feeds the checker corrupted copies of a real
// stream: each must fail, and the answer-level ones must count as wrong.
func TestCheckResponseRejects(t *testing.T) {
	u, app := referenceStream(t)
	blockLine := func(ref []byte) string {
		for _, l := range strings.SplitAfter(string(ref), "\n") {
			if strings.HasPrefix(l, `{"type":"block"`) {
				return l
			}
		}
		t.Fatal("no block record")
		return ""
	}
	summaryLine := func(ref []byte) string {
		lines := strings.SplitAfter(string(ref), "\n")
		return lines[len(lines)-2]
	}
	badNumIn, _ := editFirstSelection(t, u.ref, func(s map[string]any) { s["num_in"] = s["num_in"].(float64) + 1 })
	outOfRange, _ := editFirstSelection(t, u.ref, func(s map[string]any) { s["nodes"] = []int{1 << 20} })
	cases := []struct {
		name  string
		body  []byte
		wrong bool
	}{
		{"truncated", u.ref[:len(u.ref)-5], false},
		{"no summary", []byte(strings.TrimSuffix(string(u.ref), summaryLine(u.ref))), false},
		{"error record", append(append([]byte(nil), u.ref...), `{"type":"error","error":"boom"}`+"\n"...), false},
		{"missing block", []byte(strings.Replace(string(u.ref), blockLine(u.ref), "", 1)), true},
		{"two summaries", append(append([]byte(nil), u.ref...), summaryLine(u.ref)...), true},
		{"num_in", badNumIn, true},
		{"node out of range", outOfRange, true},
	}
	_, bi := editFirstSelection(t, u.ref, func(map[string]any) {})
	for i, nd := range app.Blocks[bi].Nodes {
		if nd.Op.IsMem() {
			memOp, _ := editFirstSelection(t, u.ref, func(s map[string]any) { s["nodes"] = []int{i} })
			cases = append(cases, struct {
				name  string
				body  []byte
				wrong bool
			}{"memory op", memOp, true})
			break
		}
	}
	for _, c := range cases {
		wrong, err := checkResponse(u, app, c.body, 4, 2)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if wrong != c.wrong {
			t.Errorf("%s: wrong = %v, want %v (%v)", c.name, wrong, c.wrong, err)
		}
	}
}

// TestOracleConvexity checks the oracle's own DFS on a hand-built chain
// a -> b -> c: {a, c} leaves the cut through b and comes back.
func TestOracleConvexity(t *testing.T) {
	bld := ir.NewBuilder("chain", 1)
	x := bld.Inputs(2)
	a := bld.Add(x[0], x[1]) // node 0
	b := bld.Neg(a)          // node 1
	bld.LiveOut(bld.Add(b, a))
	v := newBlockView(bld.MustBuild())
	if _, _, err := v.check([]int{0, 2}); err == nil || !strings.Contains(err.Error(), "not convex") {
		t.Errorf("{a, c}: got %v, want a convexity violation", err)
	}
	in, out, err := v.check([]int{0, 1, 2})
	if err != nil || in != 2 || out != 1 {
		t.Errorf("{a, b, c}: got (%d, %d, %v), want (2, 1, nil)", in, out, err)
	}
}
