package algclique

import (
	"github.com/algebraic-clique/algclique/internal/baseline"
	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/girth"
	"github.com/algebraic-clique/algclique/internal/subgraph"
)

// CountTriangles counts the graph's triangles (directed 3-cycles for
// directed graphs) via the trace formula and one distributed matrix
// product — O(n^ρ) rounds (Corollary 2). On an Auto session the A²
// product is density-aware: sparse adjacency matrices route through the
// sparse tile engine via the per-product census (see Stats.Routing on
// MatMul for the mechanism).
func (s *Clique) CountTriangles(g *Graph, opts ...CallOption) (int64, Stats, error) {
	return call(s, "CountTriangles", g.N(), ringSize, opts, func(r *opRun) (int64, error) {
		return subgraph.CountTriangles(r.net, r.engine(), padGraph(g, r.n))
	})
}

// CountFourCycles counts the graph's 4-cycles via the Alon–Yuster–Zwick
// trace formula — O(n^ρ) rounds (Corollary 2).
func (s *Clique) CountFourCycles(g *Graph, opts ...CallOption) (int64, Stats, error) {
	return call(s, "CountFourCycles", g.N(), ringSize, opts, func(r *opRun) (int64, error) {
		return subgraph.CountC4(r.net, r.engine(), padGraph(g, r.n))
	})
}

// CountFiveCycles counts the 5-cycles of an undirected graph via the
// k = 5 trace formula the paper points to in §3.1 (Alon–Yuster–Zwick):
// two distributed products — O(n^ρ) rounds.
func (s *Clique) CountFiveCycles(g *Graph, opts ...CallOption) (int64, Stats, error) {
	return call(s, "CountFiveCycles", g.N(), ringSize, opts, func(r *opRun) (int64, error) {
		return subgraph.CountC5(r.net, r.engine(), padGraph(g, r.n))
	})
}

// CountSixCycles counts the 6-cycles of an undirected graph via the k = 6
// closed-walk census (ten image shapes with machine-enumerated walk
// constants; see internal/subgraph.CountC6): two distributed products —
// O(n^ρ) rounds.
func (s *Clique) CountSixCycles(g *Graph, opts ...CallOption) (int64, Stats, error) {
	return call(s, "CountSixCycles", g.N(), ringSize, opts, func(r *opRun) (int64, error) {
		return subgraph.CountC6(r.net, r.engine(), padGraph(g, r.n))
	})
}

// DetectFourCycle reports whether an undirected graph contains a 4-cycle
// in O(1) rounds (Theorem 4) — no matrix multiplication involved. Its
// phase-1 degree census already routes per input: very dense inputs
// certify a cycle by pigeonhole, everything else rides the Lemma 12
// tiles (the same tiles the Sparse matmul engine generalises).
func (s *Clique) DetectFourCycle(g *Graph, opts ...CallOption) (bool, Stats, error) {
	return call(s, "DetectFourCycle", g.N(), anySize, opts, func(r *opRun) (bool, error) {
		return subgraph.DetectC4(r.net, g)
	})
}

// DetectCycle reports whether the graph contains a simple cycle of length
// exactly k, by randomised colour-coding — 2^{O(k)}·n^ρ·log n rounds
// (Theorem 3). There are no false positives; the detection probability per
// colouring is ≥ k!/k^k, amplified by the (configurable) trial count.
func (s *Clique) DetectCycle(g *Graph, k int, opts ...CallOption) (bool, Stats, error) {
	return call(s, "DetectCycle", g.N(), ringSize, opts, func(r *opRun) (bool, error) {
		found, _, err := subgraph.DetectKCycle(r.net, r.engine(), padGraph(g, r.n), k,
			subgraph.KCycleOpts{Colourings: r.cfg.colourings, Seed: r.cfg.seed})
		return found, err
	})
}

// Girth computes the length of the graph's shortest cycle — Õ(n^ρ) rounds
// (Theorem 5 for undirected graphs, Corollary 16 for directed ones).
// ok = false reports an acyclic graph. The undirected algorithm already
// routes on a degree census (its sparse branch gathers the graph
// directly); on an Auto session its inner Boolean products additionally
// run the density census, which keeps them on the bit-packed dense
// transport unless the operands are sparse enough to beat it.
func (s *Clique) Girth(g *Graph, opts ...CallOption) (int, bool, Stats, error) {
	var ok bool
	value, stats, err := call(s, "Girth", g.N(), ringSize, opts, func(r *opRun) (value int, err error) {
		padded := padGraph(g, r.n)
		if g.Directed() {
			value, ok, err = girth.Directed(r.net, r.engine(), padded)
		} else {
			value, ok, err = girth.Undirected(r.net, r.engine(), padded, girth.Opts{
				KCycle: subgraph.KCycleOpts{Colourings: r.cfg.colourings, Seed: r.cfg.seed},
			})
		}
		return value, err
	})
	return value, ok, stats, err
}

// Sentinel errors of the Sparse engine's restrictions as they surface
// through the session layer (SquareAdjacencySparse and any product forced
// onto WithEngine(Sparse)); all are testable with errors.Is.
var (
	// ErrSparseTooDense: the operands fail the engine's Σ ca·rb < 2n²
	// density bound (for an undirected adjacency square, the Σ deg(y)² <
	// 2n² sparseness condition). It is the engine-level sentinel itself,
	// so it matches both a forced Sparse product's error and
	// SquareAdjacencySparse's (which wraps it via subgraph.ErrTooDense).
	ErrSparseTooDense = ccmm.ErrTooDense
	// ErrSparseDirected: the graph is directed.
	ErrSparseDirected = subgraph.ErrDirected
)

// SquareAdjacencySparse computes every row of A² (2-walk counts) in O(1)
// rounds for undirected graphs with Σ deg² < 2n² — the sparse
// matrix-multiplication reading of the Theorem 4 machinery (§1.2 of the
// paper), executed as a thin wrapper over the Sparse engine's integer
// product (the engine's density census specialises exactly to the degree
// condition on an undirected adjacency matrix).
//
// Restrictions surface as wrapped sentinels testable with errors.Is:
// ErrSparseTooDense when the degree condition fails (fall back to MatMul
// on the adjacency matrix — or just use Auto, whose census does exactly
// that routing per product) and ErrSparseDirected for directed graphs.
// Instances below the n ≥ 8 packing bound are padded with isolated nodes,
// which leaves A² unchanged.
func (s *Clique) SquareAdjacencySparse(g *Graph, opts ...CallOption) (Mat, Stats, error) {
	return call(s, "SquareAdjacencySparse", g.N(), sparseSize, opts, func(r *opRun) (Mat, error) {
		rows, err := subgraph.SparseSquareScratch(r.net, r.sc, padGraph(g, r.n))
		if err != nil {
			return nil, err
		}
		// The sparse engine is forced on this path, so — like any product
		// under WithEngine(Sparse) — there is no planner decision to
		// report: Stats.Routing stays empty and the engine's own degree
		// census is visible in the mmsparse/census phase.
		r.recycle(rows)
		return truncateRows(rows, r.orig), nil
	})
}

// CountTrianglesDolev counts triangles with the deterministic
// O(n^{1/3})-round combinatorial algorithm of Dolev, Lenzen and Peled
// (DISC 2012) — the prior-work baseline of Table 1.
func (s *Clique) CountTrianglesDolev(g *Graph, opts ...CallOption) (int64, Stats, error) {
	return call(s, "CountTrianglesDolev", g.N(), anySize, opts, func(r *opRun) (int64, error) {
		return baseline.DolevTriangles(r.net, g)
	})
}
