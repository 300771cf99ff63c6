package distance

import (
	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
)

// APSPSemiringSingleBound is APSPSemiring with every squaring shipped at
// the loop's one bound (n−1)·maxW instead of its own B_s.
func APSPSemiringSingleBound(net *clique.Network, g *graphs.Weighted) (*Result, error) {
	return apspSemiring(net, g, func(n int, maxW int64, _ int) int64 {
		return SquaringBound(n, maxW, SquaringCap(n))
	})
}

// APSPSeidelSingleBound is APSPSeidel with every level capping ∞ at n and
// shipping D₂'·A at n², instead of at its own SeidelBounds.
func APSPSeidelSingleBound(net *clique.Network, engine ccmm.Engine, g *graphs.Graph) (*ccmm.RowMat[int64], error) {
	return apspSeidel(net, engine, g, func(n, _ int) (int64, int64) { return int64(n), int64(n) * int64(n) })
}
