package distance

import (
	"fmt"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// RoutingFromDistances reconstructs a routing table from exact distances
// with one witness-tagged distance product (§3.3): the witness of
// W′ ⋆ D at (u, v), W′ the weight matrix with its diagonal lifted to ∞, is
// a neighbour w ≠ u of u with W(u,w) + d(w,v) = d(u,v) — a first hop, the
// smallest one on ties (the MinPlusW tie-break). Unreachable pairs come
// back as ring.NoWitness and the diagonal as u itself. The cost is one
// ccmm.DistanceProduct3D, O(n^{1/3}) rounds and independent of the input
// values. The product runs at the entry bound the caller knows: bound ≥ 0
// promises every finite entry of w and d lies in [0, bound] (−1: no bound,
// full width). Off the diagonal W′ ⋆ D is D itself, so its entries keep
// that bound too; the diagonal, which the bound need not cover, is
// overwritten. The table is the caller's to return to the network's free
// list.
func RoutingFromDistances(net *clique.Network, w, d *ccmm.RowMat[int64], bound int64) (*ccmm.RowMat[int64], error) {
	n := net.N()
	if w.N() != n {
		return nil, fmt.Errorf("distance: weight matrix size %d on %d-node clique: %w", w.N(), n, ccmm.ErrSize)
	}
	sc := ccmm.ScratchOf(net)
	lifted := ccmm.GetMat[int64](sc, n)
	defer ccmm.PutMat(sc, lifted)
	for u := 0; u < n; u++ {
		copy(lifted.Rows[u], w.Rows[u])
		lifted.Rows[u][u] = ring.Inf
	}
	p, q, err := ccmm.DistanceProduct3D(net, sc, lifted, d, bound)
	if err != nil {
		return nil, err
	}
	ccmm.PutMat(sc, p)
	for u := 0; u < n; u++ {
		q.Rows[u][u] = int64(u)
	}
	return q, nil
}
