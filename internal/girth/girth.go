// Package girth implements the paper's girth algorithms (§3.2):
//
//   - Undirected (Theorem 15): either the graph is sparse enough — by the
//     Bondy–Simonovits-style bound of Lemma 14 — to ship entirely to every
//     node, or its girth is at most ℓ and colour-coding finds it by trying
//     k = 3, …, ℓ.
//   - Directed (Corollary 16): doubling + binary search over Boolean matrix
//     powers B(i) (reachability by paths of length ≤ i), à la Itai–Rodeh.
package girth

import (
	"fmt"
	"math"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/subgraph"
)

// DefaultMaxCycleLen is ℓ in Theorem 15: the dense branch tries cycle
// lengths 3..ℓ, and the sparse branch triggers when m ≤ n^{1+1/⌊ℓ/2⌋} + n.
// The paper picks ℓ = ⌈2 + 2/ρ⌉ (≈ 9 for our Strassen-backed ρ ≈ 0.2875),
// which balances the two branches asymptotically but makes the
// colour-coding constants (2^{O(ℓ)} · e^ℓ colourings) astronomical; ℓ = 5
// keeps the dense branch practical while preserving the algorithm's
// structure.
const DefaultMaxCycleLen = 5

// Opts configures the undirected girth computation.
type Opts struct {
	// KCycle configures each colour-coding detection.
	KCycle subgraph.KCycleOpts
}

// Undirected computes the girth of an undirected graph (Theorem 15).
// ok = false reports an acyclic graph. The result is exact whenever the
// sparse branch runs; the dense branch is randomised (no false cycles, and
// a missed detection falls through to the gather fallback, so the returned
// value is always correct — only the round count is randomised).
func Undirected(net *clique.Network, engine ccmm.Engine, g *graphs.Graph, opts Opts) (girth int, ok bool, err error) {
	if g.Directed() {
		return 0, false, fmt.Errorf("girth: Undirected needs an undirected graph: %w", ccmm.ErrSize)
	}
	if g.N() != net.N() {
		return 0, false, fmt.Errorf("girth: graph has %d nodes on an %d-node clique: %w", g.N(), net.N(), ccmm.ErrSize)
	}
	const l = DefaultMaxCycleLen
	n := net.N()

	// Edge census: one broadcast round.
	net.Phase("girth/census")
	degs := make([]clique.Word, n)
	for v := 0; v < n; v++ {
		degs[v] = clique.Word(g.OutDegree(v))
	}
	var m int64
	for _, d := range net.BroadcastWord(degs) {
		m += int64(d)
	}
	m /= 2

	threshold := int64(math.Pow(float64(n), 1+1/float64(l/2))) + int64(n)
	if m > threshold {
		// Dense: girth ≤ ℓ by Lemma 14; scan k upward.
		for k := 3; k <= l; k++ {
			found, _, err := subgraph.DetectKCycle(net, engine, g, k, opts.KCycle)
			if err != nil {
				return 0, false, err
			}
			if found {
				return k, true, nil
			}
		}
		// All randomised detections missed (probability n^{-Ω(1)} with
		// default colourings): fall back to the exact gather.
	}
	// Sparse: every node learns the whole graph and computes the girth
	// locally (Dolev et al.).
	net.Phase("girth/gather")
	girth, ok = graphs.GirthRef(subgraph.LearnGraph(net, g))
	return girth, ok, nil
}

// Directed computes the girth of a directed graph (Corollary 16): Boolean
// matrices B(i) with B(i)[u][v] = 1 iff a directed path of length 1..i
// runs from u to v satisfy B(i+j) = B(i)·B(j) ∨ A; doubling finds the
// first power with a non-empty diagonal and binary search pins the girth,
// using O(log n) Boolean products in total. ok = false reports an acyclic
// graph. (Self-loops — girth 1 — cannot occur: the graph type is simple.)
func Directed(net *clique.Network, engine ccmm.Engine, g *graphs.Graph) (girth int, ok bool, err error) {
	if !g.Directed() {
		return 0, false, fmt.Errorf("girth: Directed needs a directed graph: %w", ccmm.ErrSize)
	}
	if g.N() != net.N() {
		return 0, false, fmt.Errorf("girth: graph has %d nodes on an %d-node clique: %w", g.N(), net.N(), ccmm.ErrSize)
	}
	n := net.N()
	// The doubling and binary-search products run on the network's working
	// set; the powers and the search's candidates all die in here and go
	// back to its free list.
	sc := ccmm.ScratchOf(net)
	a := ccmm.AdjacencyRows(sc, g, false)

	diagSet := func(b *ccmm.RowMat[int64]) bool {
		return net.Any(func(v int) bool { return b.Rows[v][v] != 0 })
	}
	orA := func(b *ccmm.RowMat[int64]) {
		net.ForEach(func(v int) {
			row, arow := b.Rows[v], a.Rows[v]
			for j := 0; j < n; j++ {
				if arow[j] != 0 {
					row[j] = 1
				}
			}
		})
	}

	// Doubling: powers[t] = B(2^t). The graph type forbids self-loops, so
	// B(1) = A always has an empty diagonal and any cycle has length ≥ 2;
	// once 2^t ≥ n an empty diagonal certifies acyclicity.
	net.Phase("girth-dir/doubling")
	powers := []*ccmm.RowMat[int64]{a}
	defer func() {
		for _, b := range powers {
			ccmm.PutMat(sc, b)
		}
	}()
	t := 0
	for !diagSet(powers[t]) {
		if 1<<t >= n {
			return 0, false, nil // no cycle of length ≤ n ⇒ acyclic
		}
		b, err := ccmm.MulBoolWith(net, engine, sc, powers[t], powers[t])
		if err != nil {
			return 0, false, err
		}
		orA(b)
		powers = append(powers, b)
		t++
	}
	if t == 0 {
		return 0, false, fmt.Errorf("girth: adjacency diagonal set (self-loops unsupported)")
	}

	// Binary search in (2^{t-1}, 2^t]: girth = 1 + the largest L with an
	// empty B(L) diagonal. Start from L = 2^{t-1} and add decreasing
	// powers of two, each step one product B(L)·B(2^s) ∨ A.
	net.Phase("girth-dir/binary-search")
	lo := 1 << (t - 1)
	cur := powers[t-1]
	var made *ccmm.RowMat[int64] // cur, once it is a product of the search and not a power
	for s := t - 2; s >= 0; s-- {
		cand, err := ccmm.MulBoolWith(net, engine, sc, cur, powers[s])
		if err != nil {
			return 0, false, err
		}
		orA(cand)
		if diagSet(cand) {
			ccmm.PutMat(sc, cand)
			continue
		}
		lo += 1 << s
		ccmm.PutMat(sc, made)
		cur, made = cand, cand
	}
	ccmm.PutMat(sc, made)
	return lo + 1, true, nil
}
