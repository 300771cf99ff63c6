package distance

import (
	"fmt"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// APSPSeidel computes exact all-pairs shortest-path distances for
// unweighted undirected graphs (Corollary 7) by Seidel's recursion:
// square the graph (one Boolean product), solve APSP on G² recursively,
// and resolve the parity of each distance through the integer product
// S = D·A and the degree test of Lemma 17. The recursion terminates after
// O(log n) levels when G² = G (a disjoint union of cliques), so
// disconnected graphs are handled and yield ring.Inf across components.
func APSPSeidel(net *clique.Network, engine ccmm.Engine, g *graphs.Graph) (*ccmm.RowMat[int64], error) {
	return apspSeidel(net, engine, g, SeidelBounds)
}

// apspSeidel is APSPSeidel with level k run at the bounds bounds(n, k).
func apspSeidel(net *clique.Network, engine ccmm.Engine, g *graphs.Graph, bounds func(n, depth int) (dist, product int64)) (*ccmm.RowMat[int64], error) {
	if g.Directed() {
		return nil, fmt.Errorf("distance: Seidel's algorithm requires an undirected graph: %w", ccmm.ErrSize)
	}
	if g.N() != net.N() {
		return nil, fmt.Errorf("distance: graph has %d nodes on an %d-node clique: %w",
			g.N(), net.N(), ccmm.ErrSize)
	}
	n := net.N()
	// The network's working set serves the whole recursion: every level's
	// Boolean squaring and parity product run on it, and every matrix that
	// dies inside the recursion goes back to its free list.
	sc := ccmm.ScratchOf(net)
	a := ccmm.AdjacencyRows(sc, g, false)
	defer ccmm.PutMat(sc, a)
	return seidelRec(net, engine, sc, a, 0, log2Ceil(n)+2, bounds)
}

// SeidelBounds returns the bounds of level depth (k, from 0) of Seidel's
// recursion on n nodes, which holds the adjacency A of G^{2^k} and gets
// back from the level below the distances D₂ of G^{2^{k+1}}. A distance of G is at
// most n − 1, so every finite entry of D₂ is at most
// dist = L_k = ⌈(n−1)/2^{k+1}⌉, the value the level caps ∞ at; S = D₂'·A
// sums at most n − 1 capped entries, so product = (n−1)·L_k bounds it.
// Both follow from n and the depth alone, which every node knows.
func SeidelBounds(n, depth int) (dist, product int64) {
	k := min(depth+1, 62) // 2^62 already exceeds n − 1
	dist = (int64(n-1) + int64(1)<<k - 1) >> k
	return dist, int64(n-1) * dist
}

// seidelRec solves one level at the bounds bounds(n, depth) (SeidelBounds).
// The caller keeps a; everything the level makes except the distances it
// returns is back on sc's free list when it returns (on an error or an
// abort the level's matrices are simply the collector's).
//
// At depth k the capped product S = D₂'·A ships ⌈log₂((n−1)·L_k + 1)⌉-bit
// residues (ccmm.MulIntWith), a width that shrinks level by level.
func seidelRec(net *clique.Network, engine ccmm.Engine, sc *ccmm.Scratch, a *ccmm.RowMat[int64], depth, maxDepth int, bounds func(n, depth int) (dist, product int64)) (*ccmm.RowMat[int64], error) {
	if depth > maxDepth {
		return nil, fmt.Errorf("distance: Seidel recursion exceeded depth %d (internal invariant)", maxDepth)
	}
	n := len(a.Rows)
	net.Phase(fmt.Sprintf("seidel/square-%d", depth))
	a2, err := ccmm.MulBoolWith(net, engine, sc, a, a)
	if err != nil {
		return nil, err
	}
	// B = adjacency of G²: d(u,v) ≤ 2, excluding the diagonal.
	b := ccmm.GetMat[int64](sc, n)
	defer ccmm.PutMat(sc, b)
	fixpoint := make([]bool, n)
	net.ForEach(func(v int) {
		brow, arow, a2row := b.Rows[v], a.Rows[v], a2.Rows[v]
		same := true
		for j := 0; j < n; j++ {
			brow[j] = 0
			if j == v {
				continue
			}
			if arow[j] != 0 || a2row[j] != 0 {
				brow[j] = 1
			}
			if brow[j] != arow[j] {
				same = false
			}
		}
		fixpoint[v] = same
	})
	ccmm.PutMat(sc, a2)
	// One broadcast round agrees on the fixpoint globally.
	changed := net.Any(func(v int) bool { return !fixpoint[v] })
	if !changed {
		// G is a disjoint union of cliques: distance 1 to neighbours,
		// infinity across components.
		d := ccmm.GetMat[int64](sc, n)
		net.ForEach(func(v int) {
			row, arow := d.Rows[v], a.Rows[v]
			for j := 0; j < n; j++ {
				switch {
				case j == v:
					row[j] = 0
				case arow[j] != 0:
					row[j] = 1
				default:
					row[j] = ring.Inf
				}
			}
		})
		return d, nil
	}

	d2, err := seidelRec(net, engine, sc, b, depth+1, maxDepth, bounds)
	if err != nil {
		return nil, err
	}
	defer ccmm.PutMat(sc, d2)

	// Degrees of G are broadcast once (one round); the local sums fan out
	// over the worker pool, one node per task.
	net.Phase(fmt.Sprintf("seidel/parity-%d", depth))
	degWords := make([]clique.Word, n)
	net.ForEach(func(v int) {
		var deg int64
		for _, x := range a.Rows[v] {
			deg += x
		}
		degWords[v] = clique.Word(deg)
	})
	bc := net.BroadcastWord(degWords)
	degs := make([]int64, n)
	for v := 0; v < n; v++ {
		degs[v] = int64(bc[v])
	}

	// S = D₂'·A over the integers, with infinities capped to L_k, the
	// largest finite distance of G^{2^{k+1}}: the capped entries only meet
	// cross-component pairs, whose output stays ∞, and capping bounds every
	// entry of S by (n−1)·L_k from n and the depth alone.
	top, bound := bounds(n, depth)
	capped := ccmm.GetMat[int64](sc, n)
	net.ForEach(func(v int) {
		crow, drow := capped.Rows[v], d2.Rows[v]
		for j := 0; j < n; j++ {
			if ring.IsInf(drow[j]) {
				crow[j] = top
			} else {
				crow[j] = drow[j]
			}
		}
	})
	s, err := ccmm.MulIntWith(net, engine, sc, capped, a, bound)
	ccmm.PutMat(sc, capped)
	if err != nil {
		return nil, err
	}
	defer ccmm.PutMat(sc, s)

	// Lemma 17: d(u,v) = 2·d₂(u,v) − 1 exactly when S[u][v] < d₂(u,v)·deg(v).
	d := ccmm.GetMat[int64](sc, n)
	net.ForEach(func(u int) {
		row, d2row, srow := d.Rows[u], d2.Rows[u], s.Rows[u]
		for v := 0; v < n; v++ {
			switch {
			case u == v:
				row[v] = 0
			case ring.IsInf(d2row[v]):
				row[v] = ring.Inf
			case srow[v] < d2row[v]*degs[v]:
				row[v] = 2*d2row[v] - 1
			default:
				row[v] = 2 * d2row[v]
			}
		}
	})
	return d, nil
}
