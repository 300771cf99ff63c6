package subgraph

import (
	"fmt"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
)

// CountC5 counts 5-cycles in an undirected graph — the k = 5 case of the
// trace formulas the paper notes in §3.1 ("similar trace formulas exist
// for counting k-cycles for k ∈ {5,6,7}", citing Alon–Yuster–Zwick).
// A closed 5-walk either traverses a 5-cycle or wanders around a triangle
// with one pendant excursion, which yields
//
//	tr(A⁵) = 10·#C5 + 5·tr(A³) + 5·Σ_v (deg(v) − 2)·(A³)[v][v] ,
//
// so two distributed products (A², A³ = A²·A) and two one-round column
// exchanges suffice: O(n^ρ) rounds like Corollary 2.
func CountC5(net *clique.Network, engine ccmm.Engine, g *graphs.Graph) (int64, error) {
	if err := checkGraphSize(net, g); err != nil {
		return 0, err
	}
	if g.Directed() {
		return 0, fmt.Errorf("subgraph: CountC5 supports undirected graphs only: %w", ccmm.ErrSize)
	}
	n := net.N()
	sc := ccmm.ScratchOf(net)
	a := ccmm.AdjacencyRows(sc, g, false)
	defer ccmm.PutMat(sc, a)
	// Walk counts bound both products from n alone: A² ≤ n, A³ ≤ n².
	a2, err := ccmm.MulIntWith(net, engine, sc, a, a, int64(n))
	if err != nil {
		return 0, err
	}
	defer ccmm.PutMat(sc, a2)
	a3, err := ccmm.MulIntWith(net, engine, sc, a2, a, int64(n)*int64(n))
	if err != nil {
		return 0, err
	}
	defer ccmm.PutMat(sc, a3)

	net.Phase("c5count/trace")
	colA3 := ccmm.Transpose(net, sc, a3)
	defer ccmm.PutMat(sc, colA3)
	partial := make([]int64, n)
	net.ForEach(func(v int) {
		// tr(A⁵) contribution: Σ_w A²[v][w]·A³[w][v].
		var walk5 int64
		row := a2.Rows[v]
		col := colA3.Rows[v]
		for w := 0; w < n; w++ {
			walk5 += row[w] * col[w]
		}
		// Local corrections: (A³)[v][v] is the v-th entry of column v of
		// A³ (already exchanged), deg(v) is local.
		deg := int64(g.OutDegree(v))
		tri := a3.Rows[v][v]
		partial[v] = walk5 - 5*tri - 5*(deg-2)*tri
	})
	numer := sumBroadcast(net, partial)
	if numer%10 != 0 || numer < 0 {
		return 0, fmt.Errorf("subgraph: 5-cycle numerator %d not divisible by 10; inconsistent adjacency", numer)
	}
	return numer / 10, nil
}
