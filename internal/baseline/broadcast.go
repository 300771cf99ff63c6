package baseline

import (
	"fmt"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// BroadcastMatMul multiplies integer matrices on the *broadcast* congested
// clique: every node publishes its rows of both operands (2n rounds) and
// multiplies locally. By Corollary 24 of the paper (via Holzer–Pinsker),
// Ω̃(n) rounds are necessary in this model, so the trivial algorithm is
// optimal up to logarithmic factors — measured against the O(n^{1/3}) and
// O(n^ρ) unicast algorithms it quantifies the models' separation.
//
// The unicast network simulates the broadcast model exactly: it charges a
// Broadcast as max-length rounds and length·(n−1) words, and nothing else
// is sent. The local n×n product — by far the dominant cost, since every
// node holds the full operands — fans out over the network's worker pool;
// the parallel kernel only splits output rows, so the result is
// bit-identical to a sequential multiply.
func BroadcastMatMul(net *clique.Network, s, t *ccmm.RowMat[int64]) (*ccmm.RowMat[int64], error) {
	n := net.N()
	if s.N() != n || t.N() != n {
		return nil, fmt.Errorf("baseline: matrices %d×· on %d-node broadcast clique: %w", s.N(), n, ccmm.ErrSize)
	}
	net.Phase("bcastmm/publish")
	vecs := make([][]clique.Word, n)
	for v := 0; v < n; v++ {
		vec := make([]clique.Word, 0, 2*n)
		for _, x := range s.Rows[v] {
			vec = append(vec, clique.Word(x))
		}
		for _, x := range t.Rows[v] {
			vec = append(vec, clique.Word(x))
		}
		vecs[v] = vec
	}
	all := net.Broadcast(vecs)

	net.Phase("bcastmm/multiply")
	a := matrix.New[int64](n, n)
	b := matrix.New[int64](n, n)
	for v := 0; v < n; v++ {
		arow, brow := a.Row(v), b.Row(v)
		vec := all[v]
		for j := 0; j < n; j++ {
			arow[j] = int64(vec[j])
			brow[j] = int64(vec[n+j])
		}
	}
	prod := matrix.ParMul[int64](net, ring.Int64{}, a, b)
	out := ccmm.NewRowMat[int64](n)
	for v := 0; v < n; v++ {
		copy(out.Rows[v], prod.Row(v))
	}
	return out, nil
}
