package subgraph

import (
	"fmt"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/routing"
)

// Tile is the square A(y)×B(y) allocated to node y by Lemma 12. The
// allocator itself lives in ccmm (tiles.go), where the sparse matmul
// engine generalises it to arbitrary workload weights; this package keeps
// the degree-driven entry point below.
type Tile = ccmm.Tile

// AllocateTiles implements Lemma 12: given all degrees (globally known
// after a one-round broadcast), every node deterministically computes
// disjoint tiles A(y)×B(y) ⊆ [k]×[k] with side f(y) = max(1, 2^⌊log₂
// (deg(y)/4)⌋) for every y with deg(y) ≥ 1, where k is n rounded down to a
// power of two. Placement is a buddy-style quadtree fill in decreasing size
// order, which succeeds whenever Σ f(y)² ≤ k² — guaranteed by the phase-1
// degree bound Σ deg(y)² < 2n² for n ≥ 8 (see package doc for the deg ≤ 3
// adjustment versus the paper). It delegates to ccmm.AllocateTiles with
// weights w(y) = deg(y)², which reproduces these sides bit for bit
// (√(deg²) = deg exactly).
func AllocateTiles(degs []int, n int) ([]Tile, error) {
	fs := make([]int, len(degs))
	for y, d := range degs {
		fs[y] = ccmm.TileSideFor(int64(d) * int64(d))
	}
	return ccmm.AllocateTiles(fs, n)
}

// chunk returns the i-th of f near-equal contiguous pieces of xs, each of
// size ≤ ⌈len(xs)/f⌉ ≤ 8 for Lemma 12 tiles.
func chunk(xs []int, f, i int) []int {
	per := (len(xs) + f - 1) / f
	lo := i * per
	if lo >= len(xs) {
		return nil
	}
	hi := lo + per
	if hi > len(xs) {
		hi = len(xs)
	}
	return xs[lo:hi]
}

// DetectC4 reports whether an undirected graph contains a 4-cycle in O(1)
// rounds (Theorem 4). Phase 1 broadcasts degrees; a node x with
// |P(x,∗,∗)| = Σ_{y∈N(x)} deg(y) ≥ 2n−1 certifies a 4-cycle by pigeonhole.
// Otherwise Σ_y deg(y)² < 2n², the Lemma 12 tiles exist, and the 2-walk set
// P(∗,∗,∗) is repartitioned via the tiles so every node b holds W(b) with
// |W(b)| ≤ 64n (Lemma 13); a final routed gather hands every x its own
// 2-walks P(x,∗,∗) (≤ 2n−2 of them), where a repeated endpoint z ≠ x
// reveals the cycle.
func DetectC4(net *clique.Network, g *graphs.Graph) (bool, error) {
	if err := checkGraphSize(net, g); err != nil {
		return false, err
	}
	if g.Directed() {
		return false, fmt.Errorf("subgraph: DetectC4 requires an undirected graph: %w", ccmm.ErrSize)
	}
	n := net.N()
	if n < 8 {
		// Below the Lemma 12 packing threshold every node learns the whole
		// (constant-size) graph: still O(1) rounds.
		net.Phase("c4detect/small")
		return graphs.HasC4Ref(LearnGraph(net, g)), nil
	}

	// Phase 1: degree broadcast and the pigeonhole shortcut.
	net.Phase("c4detect/degrees")
	degWords := make([]clique.Word, n)
	for v := 0; v < n; v++ {
		degWords[v] = clique.Word(g.OutDegree(v))
	}
	bc := net.BroadcastWord(degWords)
	degs := make([]int, n)
	for v := 0; v < n; v++ {
		degs[v] = int(bc[v])
	}
	flags := make([]bool, n)
	net.ForEach(func(x int) {
		var walks int64
		g.Row(x).ForEach(func(y int) { walks += int64(degs[y]) })
		flags[x] = walks >= int64(2*n-1)
	})
	if net.Any(func(v int) bool { return flags[v] }) {
		return true, nil
	}

	// Phase 2: every node computes the same tile allocation locally.
	tiles, err := AllocateTiles(degs, n)
	if err != nil {
		return false, err
	}
	// Reverse indices: which tiles have node a in A(y) / node b in B(y).
	inA := make([][]int, n)
	inB := make([][]int, n)
	for _, t := range tiles {
		if !t.Allocated {
			continue
		}
		for _, a := range t.A() {
			inA[a] = append(inA[a], t.Y)
		}
		for _, b := range t.B() {
			inB[b] = append(inB[b], t.Y)
		}
	}

	// Step 1: y sends NA(y,a) to each a ∈ A(y); ≤ 8 words per link.
	net.Phase("c4detect/spread")
	for _, t := range tiles {
		if !t.Allocated {
			continue
		}
		nbrs := g.Neighbors(t.Y)
		for i, a := range t.A() {
			for _, x := range chunk(nbrs, t.F, i) {
				net.Send(t.Y, a, clique.Word(x))
			}
		}
	}
	mailA := net.Flush()

	// Step 2: a forwards NA(y,a) to every b ∈ B(y); the tile (a,b) belongs
	// to is unique by disjointness, so ≤ 8 words per link again.
	for a := 0; a < n; a++ {
		for _, y := range inA[a] {
			part := mailA.From(a, y)
			for _, b := range tiles[y].B() {
				net.SendVec(a, b, part)
			}
		}
	}
	mailB := net.Flush()

	// Local: b reassembles N(y) for each tile with b ∈ B(y), forms
	// W(y,b) = N(y) × {y} × NB(y,b), and addresses each walk (x,y,z) to x.
	net.Phase("c4detect/gather")
	msgs := make([][][]clique.Word, n)
	for i := range msgs {
		msgs[i] = make([][]clique.Word, n)
	}
	net.ForEach(func(b int) {
		for _, y := range inB[b] {
			t := tiles[y]
			nbrs := make([]int, 0, degs[y])
			for _, a := range t.A() {
				for _, w := range mailB.From(b, a) {
					nbrs = append(nbrs, int(w))
				}
			}
			zs := chunk(nbrs, t.F, b-t.Col)
			for _, x := range nbrs {
				for _, z := range zs {
					msgs[b][x] = append(msgs[b][x], clique.Word(z))
				}
			}
		}
	})
	// The walk buffers are relinquished to the network: zero-copy enqueue.
	in := routing.ExchangeOwned(net, routing.Auto, msgs)

	// Check: x received all of P(x,∗,∗); a duplicate endpoint z ≠ x means
	// two distinct middle nodes, i.e. a 4-cycle.
	net.Phase("c4detect/check")
	found := make([]bool, n)
	net.ForEach(func(x int) {
		seen := make(map[int]bool, 2*n)
		for src := 0; src < n; src++ {
			for _, w := range in[x][src] {
				z := int(w)
				if z == x {
					continue
				}
				if seen[z] {
					found[x] = true
					return
				}
				seen[z] = true
			}
		}
	})
	return net.Any(func(v int) bool { return found[v] }), nil
}
