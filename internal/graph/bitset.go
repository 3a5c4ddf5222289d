// Package graph provides the dense bitset and DAG algorithms that every
// other package in this repository builds on: topological ordering,
// ancestor/descendant reachability, connected components, longest paths and
// barrier distances.
//
// Graphs are directed acyclic graphs over nodes identified by small dense
// integers, which lets reachability and membership queries use flat bitsets.
package graph

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// BitSet is a fixed-capacity dense set of non-negative integers.
// The zero value is an empty set of capacity 0; use NewBitSet to size it.
type BitSet struct {
	words []uint64
	n     int // capacity in bits
}

// NewBitSet returns an empty set able to hold values in [0, n).
func NewBitSet(n int) *BitSet {
	if n < 0 {
		panic(fmt.Sprintf("graph: NewBitSet(%d): negative capacity", n))
	}
	return &BitSet{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Cap returns the capacity in bits.
func (b *BitSet) Cap() int { return b.n }

// Set inserts i into the set.
func (b *BitSet) Set(i int) { b.words[i/wordBits] |= 1 << (uint(i) % wordBits) }

// Clear removes i from the set.
func (b *BitSet) Clear(i int) { b.words[i/wordBits] &^= 1 << (uint(i) % wordBits) }

// Flip toggles membership of i and reports the new membership.
func (b *BitSet) Flip(i int) bool {
	b.words[i/wordBits] ^= 1 << (uint(i) % wordBits)
	return b.Has(i)
}

// Has reports whether i is in the set.
func (b *BitSet) Has(i int) bool {
	return b.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of elements in the set.
func (b *BitSet) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Empty reports whether the set has no elements.
func (b *BitSet) Empty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Reset removes all elements.
func (b *BitSet) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// Clone returns an independent copy of the set.
func (b *BitSet) Clone() *BitSet {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return &BitSet{words: w, n: b.n}
}

// CopyFrom overwrites b with the contents of src (capacities must match).
func (b *BitSet) CopyFrom(src *BitSet) {
	if b.n != src.n {
		panic(fmt.Sprintf("graph: CopyFrom capacity mismatch: %d != %d", b.n, src.n))
	}
	copy(b.words, src.words)
}

// Or sets b to b ∪ other.
func (b *BitSet) Or(other *BitSet) {
	for i, w := range other.words {
		b.words[i] |= w
	}
}

// And sets b to b ∩ other.
func (b *BitSet) And(other *BitSet) {
	for i, w := range other.words {
		b.words[i] &= w
	}
}

// AndNot sets b to b \ other.
func (b *BitSet) AndNot(other *BitSet) {
	for i, w := range other.words {
		b.words[i] &^= w
	}
}

// Intersects reports whether b ∩ other is non-empty.
func (b *BitSet) Intersects(other *BitSet) bool {
	m := len(b.words)
	if len(other.words) < m {
		m = len(other.words)
	}
	for i := 0; i < m; i++ {
		if b.words[i]&other.words[i] != 0 {
			return true
		}
	}
	return false
}

// IntersectCount returns |b ∩ other|.
func (b *BitSet) IntersectCount(other *BitSet) int {
	m := len(b.words)
	if len(other.words) < m {
		m = len(other.words)
	}
	c := 0
	for i := 0; i < m; i++ {
		c += bits.OnesCount64(b.words[i] & other.words[i])
	}
	return c
}

// Equal reports whether b and other contain exactly the same elements.
func (b *BitSet) Equal(other *BitSet) bool {
	if b.n != other.n {
		return false
	}
	for i, w := range b.words {
		if w != other.words[i] {
			return false
		}
	}
	return true
}

// SubsetOf reports whether every element of b is also in other.
func (b *BitSet) SubsetOf(other *BitSet) bool {
	for i, w := range b.words {
		if w&^other.words[i] != 0 {
			return false
		}
	}
	return true
}

// ForEach calls fn for each element in ascending order. If fn returns false
// the iteration stops early.
func (b *BitSet) ForEach(fn func(i int) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(wi*wordBits + bit) {
				return
			}
			w &= w - 1
		}
	}
}

// NextSet returns the smallest element >= i, or -1 when no such element
// exists. It scans word-level (one TrailingZeros64 per 64 absent
// candidates), so  for v := b.NextSet(0); v >= 0; v = b.NextSet(v + 1)
// iterates the set in ascending order without a closure and stays correct
// when the loop body mutates bits at positions <= v.
func (b *BitSet) NextSet(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= b.n {
		return -1
	}
	wi := i / wordBits
	w := b.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(b.words); wi++ {
		if b.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(b.words[wi])
		}
	}
	return -1
}

// Words exposes the backing word slice (little-endian bit order) so
// callers can hash or serialize the set without per-element iteration.
// The caller must not modify the returned slice.
func (b *BitSet) Words() []uint64 { return b.words }

// Hash returns a 64-bit FNV-1a digest of the set's backing words (including
// trailing zero words, so equal-capacity sets hash equal exactly when they
// are Equal). It mixes every word, so sets sharing a long equal prefix but
// differing in a later word still hash apart; callers deduplicating by hash
// must nonetheless confirm with Equal, since 64-bit collisions across
// distinct sets remain possible.
func (b *BitSet) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range b.words {
		for s := 0; s < 64; s += 8 {
			h ^= (w >> s) & 0xff
			h *= prime64
		}
	}
	return h
}

// Elems returns the elements in ascending order.
func (b *BitSet) Elems() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}

// String renders the set like "{1, 4, 7}".
func (b *BitSet) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(i int) bool {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
		return true
	})
	sb.WriteByte('}')
	return sb.String()
}
