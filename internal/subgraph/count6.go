package subgraph

import (
	"fmt"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
)

// CountC6 counts 6-cycles in an undirected graph — the k = 6 case of the
// §3.1 trace-formula remark. A closed 6-walk's image is one of nine shapes
// (every other subgraph either needs more than six edge traversals or has
// an odd-degree vertex in the traversal multigraph); enumerating walks per
// shape gives the census
//
//	tr(A⁶) = 2·m + 12·P₃ + 6·P₄ + 12·S₃ + 24·t + 48·q
//	       + 36·dia + 12·tad + 24·bow + 12·#C6 ,
//
// where m = edges, P₃/P₄ = paths on 3/4 vertices, S₃ = claws K_{1,3},
// t = triangles, q = 4-cycles, dia = diamonds (two triangles sharing an
// edge), tad = tadpoles (C4 plus a pendant edge), bow = bowties (two
// triangles sharing one vertex). The shape constants are
// machine-enumerated and pinned by TestClosedWalkShapeConstants.
//
// Everything reduces to two distributed products (A², A³ = A²·A), two
// one-round column exchanges, and local degree arithmetic: O(n^ρ) rounds,
// like Corollary 2.
func CountC6(net *clique.Network, engine ccmm.Engine, g *graphs.Graph) (int64, error) {
	if err := checkGraphSize(net, g); err != nil {
		return 0, err
	}
	if g.Directed() {
		return 0, fmt.Errorf("subgraph: CountC6 supports undirected graphs only: %w", ccmm.ErrSize)
	}
	n := net.N()
	sc := ccmm.ScratchOf(net)
	a := adjacencyRows(sc, g)
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

	net.Phase("c6count/census")
	// All degrees, for the path/claw terms.
	degWords := make([]clique.Word, n)
	for v := 0; v < n; v++ {
		degWords[v] = clique.Word(g.OutDegree(v))
	}
	bc := net.BroadcastWord(degWords)
	degs := make([]int64, n)
	for v := 0; v < n; v++ {
		degs[v] = int64(bc[v])
	}
	colA2 := ccmm.Transpose(net, sc, a2)
	defer ccmm.PutMat(sc, colA2)
	colA3 := ccmm.Transpose(net, sc, a3)
	defer ccmm.PutMat(sc, colA3)

	// Per-node partial sums of the census quantities; one broadcast round
	// per quantity merges them.
	const (
		pWalk6  = iota // Σ_w A³[v][w]·A³[w][v]            → tr(A⁶)
		pWalk4         // Σ_w A²[v][w]·A²[w][v]            → tr(A⁴)
		pTri           // A³[v][v]                          → tr(A³) = 6t
		pDeg2          // d_v²                              (C4 correction)
		pP3x2          // d_v(d_v−1)                        = 2·P₃ partial
		pS3x6          // d_v(d_v−1)(d_v−2)                 = 6·S₃ partial
		pP4x2          // Σ_{u∈N(v)} (d_v−1)(d_u−1)         = 2·(P₄+3t) partial
		pDiaX2         // Σ_{u∈N(v)} C(A²[v][u], 2)         = 2·dia partial
		pTadRaw        // (d_v−2)·Σ_{u≠v} C(A²[v][u], 2)    = tad + 2·dia partial
		pBowRaw        // C(t_v, 2), t_v = A³[v][v]/2        = bow + 2·dia partial
		nPartials
	)
	partials := make([][]int64, n)
	net.ForEach(func(v int) {
		p := make([]int64, nPartials)
		a2row, a3row := a2.Rows[v], a3.Rows[v]
		c2, c3 := colA2.Rows[v], colA3.Rows[v]
		d := degs[v]
		for w := 0; w < n; w++ {
			p[pWalk6] += a3row[w] * c3[w]
			p[pWalk4] += a2row[w] * c2[w]
		}
		p[pTri] = a3row[v]
		p[pDeg2] = d * d
		p[pP3x2] = d * (d - 1)
		p[pS3x6] = d * (d - 1) * (d - 2)
		var c4v int64
		for u := 0; u < n; u++ {
			if u == v {
				continue
			}
			k := a2row[u]
			c4v += k * (k - 1) / 2
			if g.HasEdge(v, u) {
				p[pP4x2] += (d - 1) * (degs[u] - 1)
				p[pDiaX2] += k * (k - 1) / 2
			}
		}
		p[pTadRaw] = (d - 2) * c4v
		tv := a3row[v] / 2 // triangles through v
		p[pBowRaw] = tv * (tv - 1) / 2
		partials[v] = p
	})
	totals := make([]int64, nPartials)
	vecs := make([][]clique.Word, n)
	for v := 0; v < n; v++ {
		vec := make([]clique.Word, nPartials)
		for i, x := range partials[v] {
			vec[i] = clique.Word(x)
		}
		vecs[v] = vec
	}
	for _, vec := range net.Broadcast(vecs) {
		for i := range totals {
			totals[i] += int64(vec[i])
		}
	}

	var m int64 // edges: Σ d_v / 2
	for _, d := range degs {
		m += d
	}
	m /= 2
	tr3 := totals[pTri]
	if tr3%6 != 0 {
		return 0, fmt.Errorf("subgraph: tr(A³) = %d not divisible by 6", tr3)
	}
	t := tr3 / 6
	c4Numer := totals[pWalk4] - (2*totals[pDeg2] - 2*m) // tr(A⁴) − Σ(2d²−d)
	if c4Numer%8 != 0 || c4Numer < 0 {
		return 0, fmt.Errorf("subgraph: 4-cycle numerator %d invalid", c4Numer)
	}
	q := c4Numer / 8
	p3 := totals[pP3x2] / 2
	s3 := totals[pS3x6] / 6
	if totals[pP4x2]%2 != 0 {
		return 0, fmt.Errorf("subgraph: P4 partial %d odd", totals[pP4x2])
	}
	p4 := totals[pP4x2]/2 - 3*t
	if totals[pDiaX2]%2 != 0 {
		return 0, fmt.Errorf("subgraph: diamond partial %d odd", totals[pDiaX2])
	}
	dia := totals[pDiaX2] / 2
	tad := totals[pTadRaw] - 2*dia
	bow := totals[pBowRaw] - 2*dia

	numer := totals[pWalk6] -
		2*m - 12*p3 - 6*p4 - 12*s3 - 24*t - 48*q - 36*dia - 12*tad - 24*bow
	if numer%12 != 0 || numer < 0 {
		return 0, fmt.Errorf("subgraph: 6-cycle numerator %d not divisible by 12 (census: m=%d p3=%d p4=%d s3=%d t=%d q=%d dia=%d tad=%d bow=%d)",
			numer, m, p3, p4, s3, t, q, dia, tad, bow)
	}
	return numer / 12, nil
}
