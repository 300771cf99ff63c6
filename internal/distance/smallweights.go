package distance

import (
	"fmt"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// DistanceProductSmall computes the min-plus product S ⋆ T of matrices with
// entries in {0, 1, …, M} ∪ {∞} via the polynomial-ring embedding of
// Lemma 18: entry w becomes the monomial X^w, ∞ becomes 0, the product is
// taken over Z[X]/X^{2M+1} with the selected (ring-capable) engine, and the
// result entry is the degree of the lowest non-zero monomial. Each ring
// element costs 2M+1 words on the wire, realising the paper's O(M·n^ρ)
// round bound.
func DistanceProductSmall(net *clique.Network, engine ccmm.Engine, s, t *ccmm.RowMat[int64], m int64) (*ccmm.RowMat[int64], error) {
	if m < 1 {
		return nil, fmt.Errorf("distance: entry bound M = %d must be ≥ 1: %w", m, ccmm.ErrSize)
	}
	n := net.N()
	pr := ring.NewPoly(int(2*m + 1))
	embed := func(src *ccmm.RowMat[int64], name string) (*ccmm.RowMat[ring.PolyElem], error) {
		out := &ccmm.RowMat[ring.PolyElem]{Rows: make([][]ring.PolyElem, len(src.Rows))}
		for v, row := range src.Rows {
			prow := make([]ring.PolyElem, len(row))
			for j, w := range row {
				if !ring.IsInf(w) {
					if w < 0 || w > m {
						return nil, fmt.Errorf("distance: %s entry (%d,%d) = %d outside {0..%d, ∞}: %w",
							name, v, j, w, m, ccmm.ErrSize)
					}
					prow[j] = pr.Monomial(w)
				}
			}
			out.Rows[v] = prow
		}
		return out, nil
	}
	sp, err := embed(s, "left")
	if err != nil {
		return nil, err
	}
	tp, err := embed(t, "right")
	if err != nil {
		return nil, err
	}
	pp, err := ccmm.MulRingWith[ring.PolyElem](net, engine, nil, pr, pr, sp, tp)
	if err != nil {
		return nil, err
	}
	// The polynomial product is the collector's: a free list would pin its
	// n²·(2M+1) coefficients.
	out := ccmm.GetMat[int64](ccmm.ScratchOf(net), n)
	for v := 0; v < n; v++ {
		row := out.Rows[v]
		for j := 0; j < n; j++ {
			if deg, ok := pr.MinDegree(pp.Rows[v][j]); ok {
				row[j] = deg
			} else {
				row[j] = ring.Inf
			}
		}
	}
	return out, nil
}

// APSPBounded computes all-pairs shortest paths up to distance M
// (Lemma 19): iterated squaring where entries above M are truncated to ∞
// before every product, so every product stays within the Lemma 18 regime.
// The map "square, then truncate above M" is deterministic, so the loop
// stops at its fixed point (Settled) within the ⌈log₂ n⌉ cap. Output
// entries are exact distances ≤ M; pairs farther apart (or unreachable)
// are ∞.
func APSPBounded(net *clique.Network, engine ccmm.Engine, w *ccmm.RowMat[int64], m int64) (*ccmm.RowMat[int64], error) {
	if m < 1 {
		return nil, fmt.Errorf("distance: distance bound M = %d must be ≥ 1: %w", m, ccmm.ErrSize)
	}
	n := net.N()
	sc := ccmm.ScratchOf(net)
	cur := truncateAbove(sc, w, m)
	depth := SquaringCap(n)
	for iter := 0; iter < depth; iter++ {
		net.Phase(fmt.Sprintf("apsp-bounded/square-%d", iter))
		next, err := DistanceProductSmall(net, engine, cur, cur, m)
		if err != nil {
			return nil, err
		}
		trunc := truncateAbove(sc, next, m)
		ccmm.PutMat(sc, next)
		settled := iter+1 < depth && Settled(net, cur, trunc)
		ccmm.PutMat(sc, cur)
		cur = trunc
		if settled {
			break
		}
	}
	return cur, nil
}

// truncateAbove copies w into a free-list matrix with entries above m set
// to ∞.
func truncateAbove(sc *ccmm.Scratch, w *ccmm.RowMat[int64], m int64) *ccmm.RowMat[int64] {
	out := ccmm.GetMat[int64](sc, len(w.Rows))
	for v, row := range w.Rows {
		orow := out.Rows[v]
		for j, x := range row {
			if x > m {
				orow[j] = ring.Inf
			} else {
				orow[j] = x
			}
		}
	}
	return out
}

// APSPSmallWeights computes exact APSP for directed graphs with positive
// integer weights and (unknown) weighted diameter U in O~(U·n^ρ) rounds
// (Corollary 8): first the reachability closure via Boolean squaring
// (stopping at its fixed point, as every squaring loop does), then
// APSPBounded under a doubling guess for U until every reachable pair has a
// finite distance.
func APSPSmallWeights(net *clique.Network, engine ccmm.Engine, g *graphs.Weighted) (*ccmm.RowMat[int64], error) {
	if err := checkWeightedSize(net, g); err != nil {
		return nil, err
	}
	n := net.N()
	w := weightRows(g)
	// The network's working set serves the reachability closure and every
	// bounded squaring of the doubling search.
	sc := ccmm.ScratchOf(net)
	var maxW int64 = 1
	for v := 0; v < n; v++ {
		for j, x := range w.Rows[v] {
			if v == j || ring.IsInf(x) {
				continue
			}
			if x < 1 {
				return nil, fmt.Errorf("distance: weight (%d,%d) = %d; small-weight APSP needs positive weights: %w",
					v, j, x, ccmm.ErrSize)
			}
			if x > maxW {
				maxW = x
			}
		}
	}

	// Reachability closure: Boolean iterated squaring of A ∨ I.
	net.Phase("apsp-smallw/reach")
	reach := ccmm.GetMat[int64](sc, n)
	for v := 0; v < n; v++ {
		row := reach.Rows[v]
		for j, x := range w.Rows[v] {
			row[j] = 0
			if v == j || !ring.IsInf(x) {
				row[j] = 1
			}
		}
	}
	reach, err := Closure(net, engine, sc, reach, n)
	if err != nil {
		return nil, err
	}
	defer ccmm.PutMat(sc, reach)

	// Doubling search over U: at most log₂(n·maxW)+1 guesses.
	limit := int64(n) * maxW
	for u := int64(1); ; u *= 2 {
		if u > 2*limit {
			return nil, fmt.Errorf("distance: diameter search exceeded %d (internal invariant)", 2*limit)
		}
		d, err := APSPBounded(net, engine, w, u)
		if err != nil {
			return nil, err
		}
		// All-reachable check: one round tells everyone whether some node
		// still has a reachable pair at distance ∞.
		done := !net.Any(func(v int) bool {
			for j, r := range reach.Rows[v] {
				if r != 0 && ring.IsInf(d.Rows[v][j]) {
					return true
				}
			}
			return false
		})
		if done {
			return d, nil
		}
		ccmm.PutMat(sc, d)
	}
}
