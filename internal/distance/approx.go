package distance

import (
	"fmt"
	"math"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// ApproxDistanceProduct computes a (1+delta)-approximate min-plus product
// of matrices with entries in {0, …, M} ∪ {∞} (Lemma 20): for each scale
// i ≤ log_{1+δ} M the entries are divided by (1+δ)^i, capped at
// ~2(1+δ)/δ, pushed through the small-entry distance product of Lemma 18,
// and the best rescaled estimate wins:
//
//	P[u][v] ≤ P̃[u][v] ≤ (1+δ)·P[u][v].
func ApproxDistanceProduct(net *clique.Network, engine ccmm.Engine, s, t *ccmm.RowMat[int64], m int64, delta float64) (*ccmm.RowMat[int64], error) {
	if delta <= 0 || delta > 1 {
		return nil, fmt.Errorf("distance: delta = %v outside (0, 1]: %w", delta, ccmm.ErrSize)
	}
	if m < 1 {
		return nil, fmt.Errorf("distance: entry bound M = %d must be ≥ 1: %w", m, ccmm.ErrSize)
	}
	n := net.N()
	scaleCap := int64(math.Ceil(2*(1+delta)/delta)) + 1
	levels := int(math.Ceil(math.Log(float64(m))/math.Log(1+delta))) + 1

	best := ccmm.NewRowMat[int64](n)
	for v := 0; v < n; v++ {
		for j := 0; j < n; j++ {
			best.Rows[v][j] = ring.Inf
		}
	}
	for i := 0; i < levels; i++ {
		pow := math.Pow(1+delta, float64(i))
		thresh := 2 * math.Pow(1+delta, float64(i+1)) / delta
		scale := func(src *ccmm.RowMat[int64]) *ccmm.RowMat[int64] {
			out := ccmm.NewRowMat[int64](n)
			for v, row := range src.Rows {
				orow := out.Rows[v]
				for j, x := range row {
					if ring.IsInf(x) || float64(x) > thresh {
						orow[j] = ring.Inf
					} else {
						orow[j] = int64(math.Ceil(float64(x)/pow - 1e-9))
					}
				}
			}
			return out
		}
		p, err := DistanceProductSmall(net, engine, scale(s), scale(t), scaleCap)
		if err != nil {
			return nil, err
		}
		for v := 0; v < n; v++ {
			brow, prow := best.Rows[v], p.Rows[v]
			for j := 0; j < n; j++ {
				if ring.IsInf(prow[j]) {
					continue
				}
				est := int64(math.Floor(pow*float64(prow[j]) + 1e-9))
				if est < brow[j] {
					brow[j] = est
				}
			}
		}
	}
	return best, nil
}

// ApproxOpts configures APSPApprox.
type ApproxOpts struct {
	// Delta is the per-product rounding parameter δ; the end-to-end stretch
	// is (1+δ)^⌈log₂ n⌉. Zero selects 1/⌈log₂ n⌉², giving the paper's
	// (1+o(1)) stretch (Theorem 9).
	Delta float64
}

// APSPApprox computes (1+ε)-approximate all-pairs shortest paths for
// directed graphs with non-negative integer weights (Theorem 9): iterated
// squaring where every distance product is the Lemma 20 approximation.
// After ⌈log₂ n⌉ squarings every estimate D̃ satisfies
//
//	d(u,v) ≤ D̃[u][v] ≤ (1+δ)^⌈log₂ n⌉ · d(u,v).
//
// The returned stretch bound is that factor.
//
// Squaring s (from 0) runs at its own entry bound M_s (approxBound), not
// the loop's: its estimates are at most (1+δ)^s times a shortest distance
// over at most 2^s hops, so M_s = ⌈min(2^{s+1}, n−1)·maxW·(1+δ)^s⌉ + 1
// bounds both its operands and the exact product of them, which is what
// Lemma 20 asks of M. M_s sizes the product's ⌈log_{1+δ} M_s⌉ + 1 scale
// levels, so the early squarings run fewer levels. maxW comes from one
// charged round and s is the loop counter, so every node knows M_s.
func APSPApprox(net *clique.Network, engine ccmm.Engine, g *graphs.Weighted, opts ApproxOpts) (dist *ccmm.RowMat[int64], stretch float64, err error) {
	if err := checkWeightedSize(net, g); err != nil {
		return nil, 0, err
	}
	n := net.N()
	iters := SquaringCap(n)
	delta := opts.Delta
	if delta == 0 {
		l := float64(iters)
		if l < 1 {
			l = 1
		}
		delta = 1 / (l * l)
	}
	if delta <= 0 || delta > 1 {
		return nil, 0, fmt.Errorf("distance: delta = %v outside (0, 1]: %w", delta, ccmm.ErrSize)
	}
	w := weightRows(g)
	for v := 0; v < n; v++ {
		for j, x := range w.Rows[v] {
			if v != j && x < 0 {
				return nil, 0, fmt.Errorf("distance: weight (%d,%d) = %d; approximate APSP needs non-negative weights: %w",
					v, j, x, ccmm.ErrSize)
			}
		}
	}
	// Each node knows its own row's largest weight; one charged round
	// tells every node the global maximum maxW, which sizes M.
	net.Phase("apsp-approx/max-weight")
	maxW := max(1, int64(net.Max(func(v int) clique.Word { return rowMaxWeight(w.Rows[v], v) })))
	// The loop's overall entry bound: path weights ≤ n·maxW, inflated by
	// the whole stretch.
	m := int64(math.Ceil(float64(int64(n)*maxW)*math.Pow(1+delta, float64(iters)))) + 1

	for iter := 0; iter < iters; iter++ {
		net.Phase(fmt.Sprintf("apsp-approx/square-%d", iter))
		w, err = ApproxDistanceProduct(net, engine, w, w, approxBound(n, maxW, iter, delta, m), delta)
		if err != nil {
			return nil, 0, err
		}
	}
	return w, math.Pow(1+delta, float64(iters)), nil
}

// approxBound returns M_s = min(m, ⌈SquaringBound(n, maxW, s)·(1+δ)^s⌉ + 1),
// the entry bound of APSPApprox's squaring s under the loop's bound m.
func approxBound(n int, maxW int64, s int, delta float64, m int64) int64 {
	b := SquaringBound(n, maxW, s)
	if b < 0 {
		return m
	}
	return min(m, int64(math.Ceil(float64(b)*math.Pow(1+delta, float64(s))))+1)
}
