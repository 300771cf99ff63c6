package subgraph

import (
	"fmt"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
)

// CountTriangles counts triangles (directed: directed 3-cycles) with the
// trace formula of Itai–Rodeh (Corollary 2): the count is tr(A³)/6 for
// undirected graphs and tr(A³)/3 for directed ones. One distributed product
// computes A², whose entries count walks and so are at most n — a bound
// every node knows, so the product ships ⌈log₂(n + 1)⌉-bit entries; the diagonal of A³ is then Σ_w A²[v][w]·A[w][v], obtained
// with a one-round column exchange and a one-round sum broadcast.
func CountTriangles(net *clique.Network, engine ccmm.Engine, g *graphs.Graph) (int64, error) {
	if err := checkGraphSize(net, g); err != nil {
		return 0, err
	}
	sc := ccmm.ScratchOf(net)
	a := ccmm.AdjacencyRows(sc, g, false)
	defer ccmm.PutMat(sc, a)
	a2, err := ccmm.MulIntWith(net, engine, sc, a, a, int64(net.N()))
	if err != nil {
		return 0, err
	}
	defer ccmm.PutMat(sc, a2)
	net.Phase("tri/trace")
	colA := ccmm.Transpose(net, sc, a)
	defer ccmm.PutMat(sc, colA)
	n := net.N()
	partial := make([]int64, n)
	net.ForEach(func(v int) {
		var t int64
		row := a2.Rows[v]
		col := colA.Rows[v]
		for w := 0; w < n; w++ {
			t += row[w] * col[w]
		}
		partial[v] = t
	})
	trace := sumBroadcast(net, partial)
	div := int64(6)
	if g.Directed() {
		div = 3
	}
	if trace%div != 0 {
		return 0, fmt.Errorf("subgraph: tr(A³) = %d not divisible by %d; inconsistent adjacency", trace, div)
	}
	return trace / div, nil
}

// CountC4 counts 4-cycles with the formula of Alon–Yuster–Zwick
// (Corollary 2). Undirected:
//
//	#C4 = (tr(A⁴) − Σ_v (2·deg(v)² − deg(v))) / 8 ,
//
// and for loopless directed graphs, with δ(v) the number of u adjacent to v
// in both directions:
//
//	#C4 = (tr(A⁴) − Σ_v (2·δ(v)² − δ(v))) / 4 .
//
// One distributed product computes A² (entries at most n, shipped at that
// width, as in CountTriangles); tr(A⁴) = Σ_{v,w} A²[v][w]·A²[w][v]
// comes from a column exchange on A², and δ(v) from a column exchange on A.
func CountC4(net *clique.Network, engine ccmm.Engine, g *graphs.Graph) (int64, error) {
	if err := checkGraphSize(net, g); err != nil {
		return 0, err
	}
	sc := ccmm.ScratchOf(net)
	a := ccmm.AdjacencyRows(sc, g, false)
	defer ccmm.PutMat(sc, a)
	a2, err := ccmm.MulIntWith(net, engine, sc, a, a, int64(net.N()))
	if err != nil {
		return 0, err
	}
	defer ccmm.PutMat(sc, a2)
	net.Phase("c4count/trace")
	n := net.N()
	colA2 := ccmm.Transpose(net, sc, a2)
	defer ccmm.PutMat(sc, colA2)
	var colA *ccmm.RowMat[int64]
	if g.Directed() {
		colA = ccmm.Transpose(net, sc, a)
		defer ccmm.PutMat(sc, colA)
	}
	partial := make([]int64, n)
	net.ForEach(func(v int) {
		var t int64
		row := a2.Rows[v]
		col := colA2.Rows[v]
		for w := 0; w < n; w++ {
			t += row[w] * col[w]
		}
		var mutual int64
		if g.Directed() {
			arow := a.Rows[v]
			acol := colA.Rows[v]
			for w := 0; w < n; w++ {
				mutual += arow[w] * acol[w]
			}
		} else {
			mutual = int64(g.OutDegree(v))
		}
		partial[v] = t - (2*mutual*mutual - mutual)
	})
	numer := sumBroadcast(net, partial)
	div := int64(8)
	if g.Directed() {
		div = 4
	}
	if numer%div != 0 || numer < 0 {
		return 0, fmt.Errorf("subgraph: 4-cycle numerator %d not divisible by %d; inconsistent adjacency", numer, div)
	}
	return numer / div, nil
}
