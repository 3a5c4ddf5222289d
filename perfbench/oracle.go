package main

import (
	"bytes"
	"fmt"

	"repro/internal/ir"
)

// checkResponse judges one response body against its upload: the stream
// must be whole and error-free, pass the independent oracle, and carry the
// same deterministic records as the in-process reference. wrong marks the
// last two failures: an answer was given, and it is not right.
func checkResponse(u *upload, app *ir.Application, body []byte, maxIn, maxOut int) (wrong bool, err error) {
	s, err := decodeStream(body)
	if err != nil {
		return false, err
	}
	if s.errorMsg != "" {
		return false, fmt.Errorf("in-stream error record: %s", s.errorMsg)
	}
	if s.summary == nil {
		return false, fmt.Errorf("truncated stream: no summary record")
	}
	if err := oracle(app, s, maxIn, maxOut); err != nil {
		return true, fmt.Errorf("oracle: %w", err)
	}
	if got := deterministicLines(body); !bytes.Equal(got, u.ref) {
		return true, fmt.Errorf("stream differs from the in-process reference")
	}
	return false, nil
}

// oracle checks a decoded stream against the parsed upload without calling
// any search engine: one block record per block in order, one summary last,
// and every selection (and each claimed instance) a convex, memory-free cut
// whose recomputed input and output counts fit the port limits — and, for
// the selection itself, equal the reported num_in/num_out.
func oracle(app *ir.Application, s *stream, maxIn, maxOut int) error {
	if len(s.blocks) != len(app.Blocks) {
		return fmt.Errorf("%d block records for %d blocks", len(s.blocks), len(app.Blocks))
	}
	if s.after != 0 {
		return fmt.Errorf("%d records after the summary", s.after)
	}
	views := make([]*blockView, len(app.Blocks))
	for i, b := range app.Blocks {
		views[i] = newBlockView(b)
	}
	ises := 0
	for i, br := range s.blocks {
		if br.Block != i || br.Name != app.Blocks[i].Name {
			return fmt.Errorf("record %d is block %d %q, want block %d %q", i, br.Block, br.Name, i, app.Blocks[i].Name)
		}
		for _, sel := range br.Selections {
			ises++
			in, out, err := views[i].check(sel.Nodes)
			if err != nil {
				return fmt.Errorf("block %d ISE %d: %w", i, sel.ISE, err)
			}
			if in != sel.NumIn || out != sel.NumOut {
				return fmt.Errorf("block %d ISE %d: reports (%d,%d) inputs/outputs, recomputed (%d,%d)", i, sel.ISE, sel.NumIn, sel.NumOut, in, out)
			}
			if in > maxIn || out > maxOut {
				return fmt.Errorf("block %d ISE %d: (%d,%d) exceeds the (%d,%d) port limit", i, sel.ISE, in, out, maxIn, maxOut)
			}
			for _, inst := range sel.Instances {
				if inst.Block < 0 || inst.Block >= len(views) {
					return fmt.Errorf("block %d ISE %d: instance in block %d of %d", i, sel.ISE, inst.Block, len(views))
				}
				in, out, err := views[inst.Block].check(inst.Nodes)
				if err != nil {
					return fmt.Errorf("block %d ISE %d instance in block %d: %w", i, sel.ISE, inst.Block, err)
				}
				if in > maxIn || out > maxOut {
					return fmt.Errorf("block %d ISE %d instance in block %d: (%d,%d) exceeds the (%d,%d) port limit", i, sel.ISE, inst.Block, in, out, maxIn, maxOut)
				}
			}
		}
	}
	if s.summary.Blocks != len(app.Blocks) || s.summary.ISEs != ises {
		return fmt.Errorf("summary reports %d blocks and %d ISEs, stream has %d and %d", s.summary.Blocks, s.summary.ISEs, len(app.Blocks), ises)
	}
	return nil
}

// blockView is the oracle's own reading of a block: operand edges taken
// straight from the node list.
type blockView struct {
	b     *ir.Block
	succs [][]int // node -> consuming nodes (one entry per operand use)
	// scratch, reused across checks of the same block
	inCut, seen []bool
	srcSeen     map[int]bool
}

func newBlockView(b *ir.Block) *blockView {
	n := len(b.Nodes)
	v := &blockView{b: b, succs: make([][]int, n), inCut: make([]bool, n), seen: make([]bool, n), srcSeen: map[int]bool{}}
	for i, nd := range b.Nodes {
		for _, a := range nd.Args {
			if a.Kind == ir.FromNode {
				v.succs[a.Index] = append(v.succs[a.Index], i)
			}
		}
	}
	return v
}

// check validates one cut and returns its recomputed input and output
// counts. Inputs are the distinct values a cut node reads from outside the
// cut (external inputs or non-cut node results; immediates are free);
// outputs are the cut nodes whose value leaves the cut or the block.
func (v *blockView) check(nodes []int) (in, out int, err error) {
	n := len(v.b.Nodes)
	for i := range v.inCut {
		v.inCut[i], v.seen[i] = false, false
	}
	clear(v.srcSeen)
	if len(nodes) == 0 {
		return 0, 0, fmt.Errorf("empty cut")
	}
	for k, id := range nodes {
		if id < 0 || id >= n {
			return 0, 0, fmt.Errorf("node %d out of range [0,%d)", id, n)
		}
		if k > 0 && id <= nodes[k-1] {
			return 0, 0, fmt.Errorf("node list not strictly ascending at %d", id)
		}
		if v.b.Nodes[id].Op.IsMem() {
			return 0, 0, fmt.Errorf("memory op %v (node %d) in cut", v.b.Nodes[id].Op, id)
		}
		v.inCut[id] = true
	}
	// Convexity: no path may leave the cut and come back. Walk forward from
	// every non-cut consumer of a cut node; reaching a cut node is a
	// violation.
	var stack []int
	for _, id := range nodes {
		for _, s := range v.succs[id] {
			if !v.inCut[s] && !v.seen[s] {
				v.seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range v.succs[x] {
			if v.inCut[s] {
				return 0, 0, fmt.Errorf("not convex: node %d leaves the cut and reaches node %d", x, s)
			}
			if !v.seen[s] {
				v.seen[s] = true
				stack = append(stack, s)
			}
		}
	}
	for _, id := range nodes {
		nd := &v.b.Nodes[id]
		for _, a := range nd.Args {
			var src int
			switch a.Kind {
			case ir.FromNode:
				if v.inCut[a.Index] {
					continue
				}
				src = a.Index
			case ir.FromInput:
				src = n + a.Index
			default:
				continue
			}
			if !v.srcSeen[src] {
				v.srcSeen[src] = true
				in++
			}
		}
		if !nd.Op.HasValue() {
			continue
		}
		if v.b.LiveOut.Has(id) {
			out++
			continue
		}
		for _, s := range v.succs[id] {
			if !v.inCut[s] {
				out++
				break
			}
		}
	}
	return in, out, nil
}
