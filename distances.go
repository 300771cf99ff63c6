package algclique

import (
	"errors"
	"fmt"

	"github.com/algebraic-clique/algclique/internal/baseline"
	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/distance"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// APSPResult holds all-pairs shortest-path output. Dist[u][v] is the
// distance (Inf when unreachable); Next, when non-nil, is the routing
// table: Next[u][v] is the first hop after u on a shortest u→v path
// (NoHop for unreachable pairs, u itself on the diagonal).
type APSPResult struct {
	Dist [][]int64
	Next [][]int64
}

// Path reconstructs a shortest u→v path from the routing table, or nil if
// v is unreachable or no routing table was computed.
func (r *APSPResult) Path(u, v int) []int {
	if r.Next == nil || u < 0 || v < 0 || u >= len(r.Next) || v >= len(r.Next) {
		return nil
	}
	if ring.IsInf(r.Dist[u][v]) {
		return nil
	}
	path := []int{u}
	cur := u
	for cur != v {
		hop := r.Next[cur][v]
		if hop < 0 || int(hop) >= len(r.Next) || len(path) > len(r.Next) {
			return nil
		}
		cur = int(hop)
		path = append(path, cur)
	}
	return path
}

func truncateResult(res *distance.Result, n int) *APSPResult {
	out := &APSPResult{Dist: truncateRows(res.Dist, n)}
	if res.Next != nil {
		out.Next = truncateRows(res.Next, n)
		// Padded nodes cannot occur on finite paths, so truncation is safe.
	}
	return out
}

// truncateRows copies the leading n×n block of m out as an answer the caller
// owns: rows cut from one backing array, each capped at its own extent.
func truncateRows(m *ccmm.RowMat[int64], n int) [][]int64 {
	b := make([]int64, n*n)
	out := make([][]int64, n)
	for v := range out {
		out[v] = b[v*n : (v+1)*n : (v+1)*n]
		copy(out[v], m.Rows[v])
	}
	return out
}

// ErrOutOfRange is wrapped by the error of a min-plus operation given a
// finite value so large that a sum the algorithm forms could reach Inf and
// come back as "no path": a distance-product entry x with |x| ≥ Inf/2, or
// an edge weight w of an n-node APSP instance with 2(n−1)·|w| ≥ Inf.
var ErrOutOfRange = errors.New("algclique: min-plus value out of range")

// entryLimit bounds the finite entries of a distance-product operand: two
// of them sum to less than Inf.
const entryLimit = Inf/2 - 1

// weightLimit bounds the finite edge weights of an n-node APSP instance:
// every shortest path has at most n−1 edges, so with 2(n−1)·|w| < Inf the
// sum of two path lengths stays below Inf.
func weightLimit(n int) int64 {
	if n < 2 {
		return Inf - 1 // no edges
	}
	return (Inf - 1) / int64(2*(n-1))
}

// checkRange refuses the finite value x at (u, v) when |x| > lim.
func checkRange(u, v int, x, lim int64) error {
	if IsInf(x) || (x <= lim && x >= -lim) {
		return nil
	}
	return fmt.Errorf("algclique: min-plus value %d at (%d, %d) exceeds ±%d: %w", x, u, v, lim, ErrOutOfRange)
}

// checkEntries checks every entry of dense distance-product operands.
func checkEntries(ms ...Mat) error {
	for _, m := range ms {
		for u, row := range m {
			for v, x := range row {
				if err := checkRange(u, v, x, entryLimit); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// checkWeights checks the edge weights of an APSP instance.
func checkWeights(g *Weighted) error {
	lim := weightLimit(g.N())
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if err := checkRange(u, v, g.Weight(u, v), lim); err != nil {
				return err
			}
		}
	}
	return nil
}

// APSP computes exact all-pairs shortest paths and routing tables for
// weighted directed graphs (integer weights, negative allowed, no negative
// cycles; an edge weight w with 2(n−1)·|w| ≥ Inf is refused with
// ErrOutOfRange) by min-plus iterated squaring on the 3D algorithm —
// O(n^{1/3} log n) rounds (Corollary 6). The 3D algorithm runs on any
// clique size, so the instance is simulated unpadded.
func (s *Clique) APSP(g *Weighted, opts ...CallOption) (res *APSPResult, stats Stats, err error) {
	if err := checkWeights(g); err != nil {
		return nil, Stats{}, err
	}
	r, err := s.begin("APSP", g.N(), anySize, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	defer r.end(&stats, &err)
	dres, derr := distance.APSPSemiring(r.net, padWeighted(g, r.n))
	if derr != nil {
		err = derr
		return
	}
	res = truncateResult(dres, r.orig)
	r.recycle(dres.Dist)
	r.recycle(dres.Next)
	return
}

// APSPUnweighted computes exact all-pairs shortest paths of an unweighted
// undirected graph by Seidel's algorithm — Õ(n^ρ) rounds (Corollary 7).
// No routing table is produced; see APSPUnweightedWithRouting.
func (s *Clique) APSPUnweighted(g *Graph, opts ...CallOption) (*APSPResult, Stats, error) {
	return s.apspUnweighted("APSPUnweighted", g, opts)
}

func (s *Clique) apspUnweighted(op string, g *Graph, opts []CallOption) (res *APSPResult, stats Stats, err error) {
	r, err := s.begin(op, g.N(), ringSize, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	defer r.end(&stats, &err)
	d, derr := distance.APSPSeidel(r.net, r.engine(), padGraph(g, r.n))
	if derr != nil {
		err = derr
		return
	}
	res = &APSPResult{Dist: truncateRows(d, r.orig)}
	r.recycle(d)
	return
}

// APSPUnweightedWithRouting runs Seidel's algorithm and then reads a
// routing table off one witness-tagged distance product (§3.3): Next[u][v]
// is the smallest neighbour w of u with 1 + d(w,v) = d(u,v). The table
// costs one 3D distance product, O(n^{1/3}) rounds on top of Seidel's and
// the same on every input.
func (s *Clique) APSPUnweightedWithRouting(g *Graph, opts ...CallOption) (res *APSPResult, stats Stats, err error) {
	r, err := s.begin("APSPUnweightedWithRouting", g.N(), ringSize, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	defer r.end(&stats, &err)
	padded := padGraph(g, r.n)
	d, derr := distance.APSPSeidel(r.net, r.engine(), padded)
	if derr != nil {
		err = derr
		return
	}
	w := r.getMat()
	for u := 0; u < r.n; u++ {
		row := w.Rows[u]
		for v := 0; v < r.n; v++ {
			switch {
			case u == v:
				row[v] = 0
			case padded.HasEdge(u, v):
				row[v] = 1
			default:
				row[v] = ring.Inf
			}
		}
	}
	// Every finite entry of w and d, and every partial 1 + d(w,v), is at
	// most n: a bound known from n alone, with no round.
	next, derr := distance.RoutingFromDistances(r.net, w, d, int64(r.n))
	if derr != nil {
		err = derr
		return
	}
	res = &APSPResult{Dist: truncateRows(d, r.orig), Next: truncateRows(next, r.orig)}
	r.recycle(d)
	r.recycle(next)
	return
}

// APSPSmallWeights computes exact all-pairs shortest paths for directed
// graphs with positive integer weights and weighted diameter U in
// Õ(U·n^ρ) rounds (Corollary 8, via the Lemma 18 ring embedding). Weights
// are range-checked as for APSP.
func (s *Clique) APSPSmallWeights(g *Weighted, opts ...CallOption) (res *APSPResult, stats Stats, err error) {
	if err := checkWeights(g); err != nil {
		return nil, Stats{}, err
	}
	r, err := s.begin("APSPSmallWeights", g.N(), ringSize, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	defer r.end(&stats, &err)
	d, derr := distance.APSPSmallWeights(r.net, r.engine(), padWeighted(g, r.n))
	if derr != nil {
		err = derr
		return
	}
	res = &APSPResult{Dist: truncateRows(d, r.orig)}
	r.recycle(d)
	return
}

// APSPApprox computes (1+ε)-approximate all-pairs shortest paths for
// directed graphs with non-negative integer weights in O(n^{ρ+o(1)})
// rounds (Theorem 9). The returned stretch is the proven bound
// (1+δ)^⌈log₂ n⌉ for the δ in effect (see WithDelta); with the default δ
// the stretch is 1+o(1). Weights are range-checked as for APSP.
func (s *Clique) APSPApprox(g *Weighted, opts ...CallOption) (res *APSPResult, stretch float64, stats Stats, err error) {
	if err := checkWeights(g); err != nil {
		return nil, 0, Stats{}, err
	}
	r, err := s.begin("APSPApprox", g.N(), ringSize, opts)
	if err != nil {
		return nil, 0, Stats{}, err
	}
	defer r.end(&stats, &err)
	d, str, derr := distance.APSPApprox(r.net, r.engine(), padWeighted(g, r.n),
		distance.ApproxOpts{Delta: r.cfg.delta})
	if derr != nil {
		err = derr
		return
	}
	res = &APSPResult{Dist: truncateRows(d, r.orig)}
	stretch = str
	r.recycle(d)
	return
}

// APSPNaive is the Θ(n)-round learn-everything baseline (per-node
// Dijkstra); non-negative weights only. Like the other semiring entry
// points it runs on the instance's own clique size (anySize never pads),
// but the padded size is resolved through the same session machinery so
// engine and padding options behave consistently across all APSP variants.
// Weights are range-checked as for APSP.
func (s *Clique) APSPNaive(g *Weighted, opts ...CallOption) (res *APSPResult, stats Stats, err error) {
	if err := checkWeights(g); err != nil {
		return nil, Stats{}, err
	}
	r, err := s.begin("APSPNaive", g.N(), anySize, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	defer r.end(&stats, &err)
	d, derr := baseline.NaiveAPSP(r.net, padWeighted(g, r.n))
	if derr != nil {
		err = derr
		return
	}
	res = &APSPResult{Dist: truncateRows(d, r.orig)}
	r.recycle(d)
	return
}

// ValidateRouting checks a distance matrix and routing table against the
// graph: every recorded path must exist and realise its distance. Intended
// for tests and examples.
func ValidateRouting(g *Weighted, res *APSPResult) error {
	if res.Next == nil {
		return fmt.Errorf("algclique: no routing table to validate")
	}
	return distance.ValidateRouting(g, matrix.FromRows(res.Dist), matrix.FromRows(res.Next))
}
