package algclique

import (
	"github.com/algebraic-clique/algclique/internal/baseline"
	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/distance"
)

// TransitiveClosure computes reachability: out[u][v] = 1 iff a (directed)
// path u→v exists or u = v, by at most ⌈log₂ n⌉ Boolean squarings of
// A ∨ I — O(n^ρ log n) rounds. The squaring stops at its fixed point: after
// every squaring but the last, one round tells every node whether any row
// changed, so when every reachable pair is at most h hops apart it runs
// min(⌈log₂ n⌉, ⌈log₂ h⌉ + 1) products. This is the reachability step of
// Corollary 8, exposed on its own.
func (s *Clique) TransitiveClosure(g *Graph, opts ...CallOption) (reach Mat, stats Stats, err error) {
	r, err := s.begin("TransitiveClosure", g.N(), ringSize, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	defer r.end(&stats, &err)
	padded := padGraph(g, r.n)
	mat := ccmm.GetMat[int64](r.sc, r.n)
	for v := 0; v < r.n; v++ {
		row := mat.Rows[v]
		for j := range row {
			row[j] = 0
		}
		row[v] = 1
		padded.Row(v).ForEach(func(u int) { row[u] = 1 })
	}
	cur, err := distance.Closure(r.net, r.engine(), r.sc, mat, r.orig)
	if err != nil {
		return nil, stats, err
	}
	r.recycle(cur)
	return truncateRows(cur, r.orig), stats, nil
}

// Diameter returns the unweighted diameter (the largest finite pairwise
// distance) of an undirected graph via Seidel APSP, and whether the graph
// is connected. For an edgeless or single-node graph the diameter is 0.
func (s *Clique) Diameter(g *Graph, opts ...CallOption) (diam int64, connected bool, stats Stats, err error) {
	res, stats, err := s.apspUnweighted("Diameter", g, opts)
	if err != nil {
		return 0, false, stats, err
	}
	connected = true
	for u := range res.Dist {
		for v := range res.Dist[u] {
			d := res.Dist[u][v]
			if IsInf(d) {
				connected = false
				continue
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam, connected, stats, nil
}

// broadcastOp is MatMulBroadcast's ledger name.
const broadcastOp = "MatMulBroadcast"

// MatMulBroadcast multiplies integer matrices on the *broadcast* congested
// clique (each node sends one identical word to everyone per round), where
// Ω̃(n) rounds are necessary for matrix multiplication (§4, Corollary 24).
// Measured against MatMul it quantifies the unicast/broadcast separation
// the paper's lower-bound section discusses. It runs on the session's
// network like every other entry point — its broadcasts are charged as
// broadcast rounds — so round limits, cancellation contexts, and per-phase
// breakdowns all apply. It refuses a fault plan: a broadcast never flushes,
// so no fault could fire.
func (s *Clique) MatMulBroadcast(a, b Mat, opts ...CallOption) (prod Mat, stats Stats, err error) {
	orig, err := squareSize(a, b)
	if err != nil {
		return nil, Stats{}, err
	}
	r, err := s.begin(broadcastOp, orig, anySize, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	defer r.end(&stats, &err)
	p, err := baseline.BroadcastMatMul(r.net, r.borrow(a, &matMulSpec), r.borrow(b, &matMulSpec))
	if err != nil {
		return nil, Stats{}, err
	}
	prod = truncateRows(p, orig)
	return
}
