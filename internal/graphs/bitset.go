// Package graphs provides the graph model shared by all algorithms:
// bitset-adjacency graphs (directed and undirected), weighted graphs,
// seeded random and structured generators, and centralised reference
// implementations (brute-force subgraph counts, BFS girth, Floyd–Warshall)
// against which the distributed algorithms are validated.
package graphs

import "math/bits"

// Bitset is a fixed-capacity bit vector.
type Bitset []uint64

// NewBitset returns a bitset able to hold n bits.
func NewBitset(n int) Bitset {
	return make(Bitset, (n+63)/64)
}

// Get reports bit i.
func (b Bitset) Get(i int) bool {
	return b[i/64]&(1<<(i%64)) != 0
}

// Set sets bit i.
func (b Bitset) Set(i int) {
	b[i/64] |= 1 << (i % 64)
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	total := 0
	for _, w := range b {
		total += bits.OnesCount64(w)
	}
	return total
}

// IntersectCount returns |b ∩ o| for equal-capacity bitsets.
func (b Bitset) IntersectCount(o Bitset) int {
	total := 0
	for i, w := range b {
		total += bits.OnesCount64(w & o[i])
	}
	return total
}

// ForEach calls f with each set bit index in increasing order.
func (b Bitset) ForEach(f func(i int)) {
	for wi, w := range b {
		for w != 0 {
			f(wi*64 + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// Clone returns a copy.
func (b Bitset) Clone() Bitset {
	out := make(Bitset, len(b))
	copy(out, b)
	return out
}
