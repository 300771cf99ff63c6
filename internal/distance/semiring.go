package distance

import (
	"fmt"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// APSPSemiring computes exact all-pairs shortest paths and routing tables
// for weighted directed graphs by iterated squaring of the weight matrix
// over the min-plus semiring (Corollary 6): at most ⌈log₂ n⌉ distance
// products on the 3D algorithm, each O(n^{1/3}) rounds on any clique size
// (the balanced cube layout), witnesses riding in-band. The squaring stops at
// its fixed point (Square: one round after every squaring but the last),
// so when every shortest path needs at most h hops it runs
// min(⌈log₂ n⌉, ⌈log₂ h⌉ + 1) products. Weights may be negative; negative
// cycles are detected and rejected.
//
// One charged round (Network.Max) first tells every node the largest
// weight maxW, or that some weight is negative. Without negative weights
// every finite entry of the iterate D_s that squaring s (from 0) squares
// is the weight of a shortest path of at most 2^s hops, and every finite
// entry of its square one of at most 2^{s+1} hops; a simple path of at
// most n − 1 edges matches or beats either. So squaring s ships its
// entries at B_s = SquaringBound(n, maxW, s) = min(2^{s+1}, n−1)·maxW
// (ccmm.DistanceProduct3D): ⌈log₂(B_s+2)⌉ bits per operand entry instead
// of a word, a width that grows with the loop counter and reaches the
// single bound (n−1)·maxW only once 2^{s+1} ≥ n − 1. Every node knows
// maxW and s, so no width costs a round. With a negative weight the
// products run at full width, and only then can a negative cycle exist.
func APSPSemiring(net *clique.Network, g *graphs.Weighted) (*Result, error) {
	return apspSemiring(net, g, SquaringBound)
}

// SquaringBound returns B_s = min(2^{s+1}, n−1)·maxW, the entry bound of
// squaring s (from 0) of APSP on n nodes whose weights lie in [0, maxW],
// or −1 when B_s would reach ring.Inf and the squaring runs at full width.
func SquaringBound(n int, maxW int64, s int) int64 {
	hops := min(int64(n-1), int64(1)<<min(s+1, 62)) // 2^62 already exceeds n − 1
	if hops > 0 && maxW > (ring.Inf-1)/hops {
		return -1
	}
	return hops * maxW
}

// apspSemiring is APSPSemiring with squaring s shipped at bound(n, maxW, s).
func apspSemiring(net *clique.Network, g *graphs.Weighted, bound func(n int, maxW int64, s int) int64) (*Result, error) {
	if err := checkWeightedSize(net, g); err != nil {
		return nil, err
	}
	n := net.N()
	// The network's working set serves every squaring — the ⌈log₂ n⌉
	// products reuse the same message matrices, payload buffers, and block
	// operands — and takes back each iterate, witness matrix, and routing
	// table once the next one supersedes it.
	sc := ccmm.ScratchOf(net)
	w := ccmm.GetMat[int64](sc, n)
	for v := range w.Rows {
		copy(w.Rows[v], g.Matrix().Row(v))
	}

	// Initial routing table: direct edges point at the target.
	next := ccmm.GetMat[int64](sc, n)
	for u := 0; u < n; u++ {
		row := next.Rows[u]
		for v := 0; v < n; v++ {
			switch {
			case u == v:
				row[v] = int64(u)
			case !ring.IsInf(w.Rows[u][v]):
				row[v] = int64(v)
			default:
				row[v] = ring.NoWitness
			}
		}
	}

	net.Phase("apsp3d/max-weight")
	top := net.Max(func(v int) clique.Word { return rowMaxWeight(w.Rows[v], v) })
	negative := top == negativeWeight

	put := func(it Result) {
		ccmm.PutMat(sc, it.Dist)
		ccmm.PutMat(sc, it.Next)
	}
	res, settled, err := Square(net, n, Result{Dist: w, Next: next},
		func(s int, cur Result) (Result, error) {
			net.Phase(fmt.Sprintf("apsp3d/square-%d", s))
			b := int64(-1)
			if !negative {
				b = bound(n, int64(top), s)
			}
			w2, q, err := ccmm.DistanceProduct3D(net, sc, cur.Dist, cur.Dist, b)
			if err != nil {
				return Result{}, err
			}
			// R'[u,v] = R[u, Q[u,v]] where the square strictly improved,
			// R[u,v] elsewhere — a purely local update, since node u owns
			// all the rows involved. It is written into a second table so
			// that updates within the same squaring cannot observe each
			// other.
			next2 := ccmm.GetMat[int64](sc, n)
			net.ForEach(func(u int) {
				wrow, w2row := cur.Dist.Rows[u], w2.Rows[u]
				old, nrow, qrow := cur.Next.Rows[u], next2.Rows[u], q.Rows[u]
				for v := 0; v < n; v++ {
					if w2row[v] < wrow[v] {
						nrow[v] = old[qrow[v]]
					} else {
						nrow[v] = old[v]
					}
				}
			})
			ccmm.PutMat(sc, q)
			return Result{Dist: w2, Next: next2}, nil
		},
		// The routing table moves only where the distances strictly
		// improved, so unchanged distances are a fixed point of both.
		func(old, cur Result, v int) bool { return rowsChanged(old.Dist, cur.Dist, v) },
		put)
	if err != nil {
		return nil, err
	}

	// Negative-cycle check: one node's negative diagonal entry is enough,
	// and one round tells everyone. Only a negative weight makes a negative
	// cycle, and a fixed point has none — a negative diagonal entry d would
	// square to at most 2d < d — so only a loop that saw a negative weight
	// and ran to the cap asks.
	if negative && !settled && net.Any(func(v int) bool { return res.Dist.Rows[v][v] < 0 }) {
		put(res)
		return nil, fmt.Errorf("distance: graph contains a negative cycle")
	}
	return &res, nil
}

// negativeWeight is a node's word in a max-weight round when its row holds
// a negative weight; it tops every real weight.
const negativeWeight = ^clique.Word(0)

// rowMaxWeight is node v's word in a max-weight round (Network.Max): the
// largest finite weight off the diagonal of its row, 0 when there is none,
// or negativeWeight when one of them is negative.
func rowMaxWeight(row []int64, v int) clique.Word {
	var m int64
	for j, x := range row {
		if j == v || ring.IsInf(x) {
			continue
		}
		if x < 0 {
			return negativeWeight
		}
		m = max(m, x)
	}
	return clique.Word(m)
}
