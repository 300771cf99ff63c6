package algclique

import (
	"fmt"

	"github.com/algebraic-clique/algclique/internal/ccmm"
)

// MatMul multiplies two n×n integer matrices on the session's simulated
// congested clique (row v of each operand is node v's input) and returns
// the product with measured communication stats. The default engine is the
// fast bilinear algorithm — O(n^{1-2/log₂7}) ≈ O(n^{0.29}) rounds with the
// Strassen scheme (Theorem 1; the paper's O(n^{0.158}) uses the
// impracticable Le Gall scheme, see DESIGN.md).
func (s *Clique) MatMul(a, b Mat, opts ...CallOption) (Mat, Stats, error) {
	return s.product(&matMulSpec, a, b, opts)
}

// DistanceProduct computes the min-plus (tropical) product
// P[u][v] = min_w A[u][w] + B[w][v] with Inf as "no entry" — the primitive
// behind all APSP algorithms. Runs unpadded on the semiring 3D engine for
// any instance size — O(n^{1/3}) rounds on the instance's own clique
// (tiny instances below 8 nodes use the naive engine); for bounded entries
// the ring-embedded fast product is used by the small-weight APSP entry
// points. A finite entry x with |x| ≥ Inf/2 is refused with ErrOutOfRange:
// the sum of two could reach Inf.
func (s *Clique) DistanceProduct(a, b Mat, opts ...CallOption) (Mat, Stats, error) {
	return s.product(&distanceProductSpec, a, b, opts)
}

// MatMulBool computes the Boolean matrix product (reachability
// composition): every nonzero entry of an operand is true, whatever its
// value and whichever engine runs, and the product is a 0/1 matrix. It
// multiplies over the integers on the fast engine.
func (s *Clique) MatMulBool(a, b Mat, opts ...CallOption) (Mat, Stats, error) {
	return s.product(&matMulBoolSpec, a, b, opts)
}

// product is the shared entry for the three matrix products: one
// per-operation harness around runProduct's retry/certification loop.
func (s *Clique) product(spec *productSpec, a, b Mat, opts []CallOption) (Mat, Stats, error) {
	orig, err := squareSize(a, b)
	if err != nil {
		return nil, Stats{}, err
	}
	if spec.class == minPlusSize {
		if err := checkEntries(a, b); err != nil {
			return nil, Stats{}, err
		}
	}
	return call(s, spec.op, orig, spec.class, opts, func(r *opRun) (Mat, error) {
		return r.runProduct(spec, a, b)
	})
}

func squareSize(a, b Mat) (int, error) {
	n := len(a)
	if len(b) != n {
		return 0, fmt.Errorf("algclique: operand sizes %d and %d differ: %w", n, len(b), ccmm.ErrSize)
	}
	for i, row := range a {
		if len(row) != n {
			return 0, fmt.Errorf("algclique: left operand row %d has %d entries, want %d: %w", i, len(row), n, ccmm.ErrSize)
		}
	}
	for i, row := range b {
		if len(row) != n {
			return 0, fmt.Errorf("algclique: right operand row %d has %d entries, want %d: %w", i, len(row), n, ccmm.ErrSize)
		}
	}
	return n, nil
}

// padMatInto embeds rows into an existing n×n distributed matrix, filling
// all other entries with the algebra's zero (0 for rings, Inf for min-plus)
// so the padded product restricted to the original block is unchanged; a
// Boolean copy writes every nonzero entry as 1. Every entry is overwritten,
// so pooled buffers with stale contents are safe.
func padMatInto(dst *ccmm.RowMat[int64], rows Mat, zero int64, boolean bool) {
	for v, r := range dst.Rows {
		var src []int64
		if v < len(rows) {
			src = rows[v]
		}
		k := len(src)
		if boolean {
			for j, x := range src {
				r[j] = 0
				if x != 0 {
					r[j] = 1
				}
			}
		} else {
			k = copy(r, src)
		}
		for j := k; j < len(r); j++ {
			r[j] = zero
		}
	}
}
