// Package distance implements the paper's distance-computation algorithms
// (§3.3–3.4):
//
//   - APSPSemiring: exact weighted directed APSP via min-plus iterated
//     squaring with in-band witnesses and routing tables (Corollary 6).
//   - APSPSeidel: exact unweighted undirected APSP (Corollary 7, Lemma 17).
//   - DistanceProductSmall / APSPBounded / APSPSmallWeights: the
//     polynomial-ring embedding for small weights (Lemma 18, Lemma 19,
//     Corollary 8 with diameter doubling).
//   - ApproxDistanceProduct / APSPApprox: the (1+o(1))-approximation by
//     weight rounding (Lemma 20, Theorem 9).
//   - RoutingFromDistances: a routing table from exact distances, read off
//     one witness-tagged 3D distance product (§3.3).
package distance

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// Result bundles the outputs of an APSP computation. Dist[u][v] is the
// shortest-path distance (ring.Inf when unreachable). Next, when non-nil,
// is the routing table: Next[u][v] is the first hop after u on a shortest
// u→v path (the paper's R[u,v]), v itself for direct edges, u on the
// diagonal, and ring.NoWitness for unreachable pairs.
type Result struct {
	Dist *ccmm.RowMat[int64]
	Next *ccmm.RowMat[int64]
}

// weightRows distributes the weight matrix one row per node.
func weightRows(g *graphs.Weighted) *ccmm.RowMat[int64] {
	n := g.N()
	out := &ccmm.RowMat[int64]{Rows: make([][]int64, n)}
	for v := 0; v < n; v++ {
		row := make([]int64, n)
		copy(row, g.Matrix().Row(v))
		out.Rows[v] = row
	}
	return out
}

func checkWeightedSize(net *clique.Network, g *graphs.Weighted) error {
	if g.N() != net.N() {
		return fmt.Errorf("distance: graph has %d nodes on an %d-node clique: %w",
			g.N(), net.N(), ccmm.ErrSize)
	}
	return nil
}

// log2Ceil returns ⌈log₂ n⌉ for n ≥ 1.
func log2Ceil(n int) int {
	return bits.Len(uint(n - 1))
}

// SquaringCap is the one depth cap of every iterated-squaring loop: on an
// n-node instance a shortest path or a reachability witness has at most
// n−1 hops, so ⌈log₂ n⌉ squarings settle any iterate.
func SquaringCap(n int) int { return log2Ceil(n) }

// Square is the one iterated-squaring loop: it squares seed with step, at
// most SquaringCap(capN) times (capN is the unpadded size when the clique
// is padded), and stops at the fixed point. After every squaring but the
// last one the cap allows, every node tests its row v with changed(old,
// cur, v), and Network.Any — one charged round — tells every node whether
// any row changed. A deterministic squaring map that leaves its iterate
// unchanged leaves it unchanged for ever, so a run that stops there returns
// exactly what the capped run would; when every shortest path (or
// reachability witness) needs at most h hops it runs
// min(SquaringCap(capN), ⌈log₂ h⌉ + 1) squarings. step(s, cur) is squaring
// s (from 0); it sets its own phase, so the fixed-point round is charged to
// it. Square hands every iterate that a later one supersedes to put, and on
// an error the current one as well, so the caller owns only the returned
// iterate. settled reports a run that stopped at its fixed point.
func Square[M any](net *clique.Network, capN int, seed M, step func(s int, cur M) (M, error), changed func(old, cur M, v int) bool, put func(M)) (cur M, settled bool, err error) {
	depth := SquaringCap(capN)
	cur = seed
	for s := 0; s < depth; s++ {
		next, err := step(s, cur)
		if err != nil {
			put(cur)
			var zero M
			return zero, false, err
		}
		settled = s+1 < depth && !net.Any(func(v int) bool { return changed(cur, next, v) })
		put(cur)
		cur = next
		if settled {
			break
		}
	}
	return cur, settled, nil
}

// rowsChanged is Square's row test for row matrices: node v's row differs.
func rowsChanged(old, cur *ccmm.RowMat[int64], v int) bool {
	return !slices.Equal(old.Rows[v], cur.Rows[v])
}

// Closure squares reach, the 0/1 rows of A ∨ I, into the reachability
// closure: Boolean squarings on engine, at most SquaringCap(capN) of them,
// stopping at the fixed point. reach comes from sc's free list and is
// consumed, like every iterate but the returned one, which is the caller's
// to return.
func Closure(net *clique.Network, engine ccmm.Engine, sc *ccmm.Scratch, reach *ccmm.RowMat[int64], capN int) (*ccmm.RowMat[int64], error) {
	reach, _, err := Square(net, capN, reach,
		func(_ int, cur *ccmm.RowMat[int64]) (*ccmm.RowMat[int64], error) {
			return ccmm.MulBoolWith(net, engine, sc, cur, cur)
		},
		rowsChanged, func(x *ccmm.RowMat[int64]) { ccmm.PutMat(sc, x) })
	return reach, err
}

// ValidateRouting is a centralised test helper: it walks every routing-table
// path and confirms it realises the claimed distance within n hops.
func ValidateRouting(g *graphs.Weighted, dist, next *matrix.Dense[int64]) error {
	n := g.N()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			d := dist.At(u, v)
			if u == v {
				if d != 0 {
					return fmt.Errorf("distance: d(%d,%d) = %d, want 0", u, u, d)
				}
				continue
			}
			if ring.IsInf(d) {
				if next.At(u, v) != ring.NoWitness {
					return fmt.Errorf("distance: unreachable pair (%d,%d) has next hop %d", u, v, next.At(u, v))
				}
				continue
			}
			cur := u
			var total int64
			for steps := 0; cur != v; steps++ {
				if steps > n {
					return fmt.Errorf("distance: routing loop on pair (%d,%d)", u, v)
				}
				hop := next.At(cur, v)
				if hop < 0 || hop >= int64(n) {
					return fmt.Errorf("distance: bad next hop %d at (%d,%d)", hop, cur, v)
				}
				w := g.Weight(cur, int(hop))
				if ring.IsInf(w) {
					return fmt.Errorf("distance: routing uses non-edge (%d,%d)", cur, hop)
				}
				total += w
				cur = int(hop)
			}
			if total != d {
				return fmt.Errorf("distance: path for (%d,%d) has weight %d, distance says %d", u, v, total, d)
			}
		}
	}
	return nil
}
