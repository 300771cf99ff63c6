package main

import (
	"errors"
	"fmt"
	"strings"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/distance"
	"github.com/algebraic-clique/algclique/internal/girth"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/subgraph"
)

// libOp is one scripted operation: a public API call on a warm session,
// the check of its answer against a reference the session did not compute,
// and — where the package below the session exports the function the
// session calls — the same work entered one rung lower.
type libOp struct {
	key string
	// sess indexes the workload's sessions (sparse_csr has one per size).
	sess int
	// call makes the public API call and keeps the answer for verify.
	call func(s *cc.Clique) (cc.Stats, error)
	// verify checks the kept answer: entry by entry when full, by checksum
	// otherwise. It never runs inside an op timer.
	verify func(full bool) error
	// below replays the operation one rung down, on a bench-owned network;
	// nil when the session method has no exported function beneath it.
	below func(x *belowCtx) error
}

// belowCtx is what a rung below the session gets from the ladder.
type belowCtx struct {
	rigs *rigs
	// n and rounds are the clique size and round count the session charged
	// for the operation (Stats.N, Stats.Rounds): the rung below must run on
	// the same size and charge the same rounds, or it is not the same work.
	n      int
	rounds int64
	// span times f as one span of the rung, attributed to layer, and
	// records it as a sample of <layer>.ms_p50.<subject>.
	span func(layer, subject string, f func() error) error
}

// checkRounds is the ladder's own sanity check.
func (x *belowCtx) checkRounds(net *clique.Network) error {
	if got := net.Rounds(); got != x.rounds {
		return fmt.Errorf("rung below charged %d rounds, the session charged %d", got, x.rounds)
	}
	return nil
}

// rig is a bench-owned network with the engine state a session would hold
// for one clique size.
type rig struct {
	net  *clique.Network
	sc   *ccmm.Scratch
	plan *ccmm.Plan
}

// rigs builds one rig per clique size on first use.
type rigs struct {
	wire bool
	bySz map[int]*rig
}

func (r *rigs) at(n int) *rig {
	if g, ok := r.bySz[n]; ok {
		return g
	}
	if r.bySz == nil {
		r.bySz = make(map[int]*rig)
	}
	g := &rig{net: clique.New(n), sc: ccmm.NewScratch(), plan: ccmm.PlanFor(n, ccmm.EngineAuto)}
	if r.wire {
		g.net.SetTransport(clique.TransportWire)
	}
	r.bySz[n] = g
	return g
}

func (r *rigs) close() {
	for _, g := range r.bySz {
		g.net.Close()
	}
	r.bySz = nil
}

// rowMatOf distributes rows one per node on an n-node clique, padding with
// the algebra's zero exactly as a session pads ring-class operands.
func rowMatOf(rows cc.Mat, n int, zero int64) *ccmm.RowMat[int64] {
	m := ccmm.NewRowMat[int64](n)
	for v, dst := range m.Rows {
		k := 0
		if v < len(rows) {
			k = copy(dst, rows[v])
		}
		for j := k; j < n; j++ {
			dst[j] = zero
		}
	}
	return m
}

// verifyRows checks the leading block of a matrix answer against want: by
// checksum unless full, and entry by entry whenever the checksum differs,
// so that a failure names the entry.
func verifyRows(got [][]int64, want cc.Mat, wantSum uint64, full bool) error {
	if !full && sumRows(got, len(want)) == wantSum {
		return nil
	}
	return diffRows(got, want)
}

// matOp scripts a matrix-valued session call.
func matOp(key string, want cc.Mat, call func(s *cc.Clique) (cc.Mat, cc.Stats, error)) libOp {
	wantSum := sumRows(want, len(want))
	var got cc.Mat
	return libOp{
		key: key,
		call: func(s *cc.Clique) (st cc.Stats, err error) {
			got, st, err = call(s)
			return st, err
		},
		verify: func(full bool) error { return verifyRows(got, want, wantSum, full) },
	}
}

// scalarOp scripts a session call whose answer is one comparable value.
func scalarOp[T comparable](key string, want T, call func(s *cc.Clique) (T, cc.Stats, error)) libOp {
	var got T
	return libOp{
		key: key,
		call: func(s *cc.Clique) (st cc.Stats, err error) {
			got, st, err = call(s)
			return st, err
		},
		verify: func(bool) error {
			if got != want {
				return fmt.Errorf("answer %v, want %v", got, want)
			}
			return nil
		},
	}
}

// productOp scripts MatMul, MatMulBool or DistanceProduct on dense
// operands; certify > 0 adds WithCertification(certify). The rung below is
// the plan's routed product (and the certification check) in ccmm.
func productOp(key string, kind productKind, a, b cc.Mat, certify int) libOp {
	var opts []cc.CallOption
	if certify > 0 {
		opts = append(opts, cc.WithCertification(certify))
	}
	want := refProduct(kind, a, b)
	op := matOp(key, want, func(s *cc.Clique) (cc.Mat, cc.Stats, error) {
		switch kind {
		case mulBool:
			return s.MatMulBool(a, b, opts...)
		case mulMinPlus:
			return s.DistanceProduct(a, b, opts...)
		default:
			return s.MatMul(a, b, opts...)
		}
	})
	wantSum := sumRows(want, len(want))
	var pa, pb *ccmm.RowMat[int64]
	op.below = func(x *belowCtx) error {
		g := x.rigs.at(x.n)
		if pa == nil || pa.N() != x.n {
			pa, pb = rowMatOf(a, x.n, kind.zero()), rowMatOf(b, x.n, kind.zero())
		}
		var p *ccmm.RowMat[int64]
		err := x.span("ccmm", key, func() (err error) {
			g.net.Reset()
			switch kind {
			case mulBool:
				p, _, err = g.plan.MulBoolRouted(g.net, g.sc, pa, pb)
			case mulMinPlus:
				p, _, err = g.plan.MulMinPlusRouted(g.net, g.sc, pa, pb)
			default:
				p, _, err = g.plan.MulIntRouted(g.net, g.sc, pa, pb)
			}
			return err
		})
		if err != nil {
			return err
		}
		if certify > 0 {
			err = x.span("ccmm", strings.Replace(key, "matmul_cert", "certify", 1), func() error {
				ok, err := ccmm.CertifyIntProduct(g.net, pa, pb, p, certify, 1)
				if err == nil && !ok {
					err = errors.New("certification rejected a correct product")
				}
				return err
			})
			if err != nil {
				return err
			}
		}
		if err := x.checkRounds(g.net); err != nil {
			return err
		}
		return verifyRows(p.Rows, want, wantSum, false)
	}
	return op
}

// csrOp scripts a CSR product of a with itself: SquareAdjacencyCSR for the
// integer ring, MatMulBoolCSR and DistanceProductCSR for the semirings. The
// rung below is the plan's routed CSR product in ccmm.
func csrOp(key string, kind productKind, sess int, a *cc.CSR) libOp {
	want := refCSRProduct(kind, a, a)
	wantSum := sumCSR(kind, want.RowPtr, want.Col, want.Val, want.N)
	verify := func(rowPtr []int64, col []int32, val []int64, full bool) error {
		if !full && sumCSR(kind, rowPtr, col, val, want.N) == wantSum {
			return nil
		}
		return diffCSR(kind, rowPtr, col, val, want)
	}
	var got cc.CSRProduct
	op := libOp{key: key, sess: sess}
	op.call = func(s *cc.Clique) (st cc.Stats, err error) {
		switch kind {
		case mulBool:
			got, st, err = s.MatMulBoolCSR(a, a)
		case mulMinPlus:
			got, st, err = s.DistanceProductCSR(a, a)
		default:
			got, st, err = s.SquareAdjacencyCSR(a)
		}
		return st, err
	}
	op.verify = func(full bool) error {
		m := got.Sparse
		if m == nil {
			// The census sent the product to a dense engine; compress the
			// answer so one comparison serves both forms.
			var err error
			if m, err = cc.CSRFromMat(got.Dense, kind.zero()); err != nil {
				return err
			}
		}
		return verify(m.RowPtr, m.Col, m.Val, full)
	}
	var pa *matrix.CSR[int64]
	op.below = func(x *belowCtx) error {
		g := x.rigs.at(x.n)
		if pa == nil || pa.N != x.n {
			rp := make([]int64, x.n+1)
			copy(rp, a.RowPtr)
			for v := a.N + 1; v <= x.n; v++ {
				rp[v] = a.RowPtr[a.N]
			}
			pa = &matrix.CSR[int64]{N: x.n, RowPtr: rp, Col: a.Col, Val: a.Val}
		}
		var p ccmm.CSRProduct[int64]
		err := x.span("ccmm", key, func() (err error) {
			g.net.Reset()
			switch kind {
			case mulBool:
				p, _, err = g.plan.MulBoolCSRRouted(g.net, g.sc, pa, pa)
			case mulMinPlus:
				p, _, err = g.plan.MulMinPlusCSRRouted(g.net, g.sc, pa, pa)
			default:
				p, _, err = g.plan.MulIntCSRRouted(g.net, g.sc, pa, pa)
			}
			return err
		})
		if err != nil {
			return err
		}
		if err := x.checkRounds(g.net); err != nil {
			return err
		}
		if p.Sparse == nil {
			return verifyRows(p.Dense.Rows, want.Dense(kind.zero(), kind.one()), 0, true)
		}
		return verify(p.Sparse.RowPtr, p.Sparse.Col, p.Sparse.Val, false)
	}
	return op
}

// graphBelow wraps a network-level reduction as a rung: reset the rig's
// network, run f on it, compare the charged rounds with the session's.
func graphBelow(layer, subject string, f func(net *clique.Network, n int) error) func(x *belowCtx) error {
	return func(x *belowCtx) error {
		g := x.rigs.at(x.n)
		err := x.span(layer, subject, func() error {
			g.net.Reset()
			return f(g.net, x.n)
		})
		if err != nil {
			return err
		}
		return x.checkRounds(g.net)
	}
}

// rowsOf views a reference distance matrix as rows.
func rowsOf(d *matrix.Dense[int64]) cc.Mat {
	out := make(cc.Mat, d.Rows())
	for i := range out {
		out[i] = d.Row(i)
	}
	return out
}

// apspOp scripts APSP on a weighted directed graph: distances against
// Floyd–Warshall, and on full checks the routing table against the graph.
func apspOp(key string, w *cc.Weighted) (libOp, error) {
	fw, err := graphs.FloydWarshall(w)
	if err != nil {
		return libOp{}, err
	}
	want := rowsOf(fw)
	wantSum := sumRows(want, len(want))
	var got *cc.APSPResult
	op := libOp{key: key}
	op.call = func(s *cc.Clique) (st cc.Stats, err error) {
		got, st, err = s.APSP(w)
		return st, err
	}
	op.verify = func(full bool) error {
		if err := verifyRows(got.Dist, want, wantSum, full); err != nil || !full {
			return err
		}
		return cc.ValidateRouting(w, got)
	}
	op.below = graphBelow("distance", key, func(net *clique.Network, n int) error {
		res, err := distance.APSPSemiring(net, padWeighted(w, n))
		if err != nil {
			return err
		}
		return verifyRows(res.Dist.Rows, want, wantSum, false)
	})
	return op, nil
}

// apspUnweightedOp scripts Seidel's APSP against breadth-first search.
func apspUnweightedOp(key, subject string, g *cc.Graph) libOp {
	want := rowsOf(graphs.BFSAllPairs(g))
	wantSum := sumRows(want, len(want))
	op := matOp(key, want, func(s *cc.Clique) (cc.Mat, cc.Stats, error) {
		res, st, err := s.APSPUnweighted(g)
		if err != nil {
			return nil, st, err
		}
		return res.Dist, st, nil
	})
	op.below = graphBelow("distance", subject, func(net *clique.Network, n int) error {
		d, err := distance.APSPSeidel(net, ccmm.EngineAuto, padGraph(g, n))
		if err != nil {
			return err
		}
		return verifyRows(d.Rows, want, wantSum, false)
	})
	return op
}

// closureOp scripts TransitiveClosure against breadth-first reachability.
// The session method drives the Boolean squarings itself, so there is no
// rung to enter below it.
func closureOp(key string, g *cc.Graph) libOp {
	want := rowsOf(graphs.BFSAllPairs(g))
	for _, row := range want {
		for j, d := range row {
			if cc.IsInf(d) {
				row[j] = 0
			} else {
				row[j] = 1
			}
		}
	}
	return matOp(key, want, func(s *cc.Clique) (cc.Mat, cc.Stats, error) { return s.TransitiveClosure(g) })
}

// countOp scripts one of the trace-formula subgraph counts.
func countOp(key string, g *cc.Graph, want int64,
	call func(s *cc.Clique, g *cc.Graph, opts ...cc.CallOption) (int64, cc.Stats, error),
	below func(net *clique.Network, e ccmm.Engine, g *graphs.Graph) (int64, error)) libOp {
	op := scalarOp(key, want, func(s *cc.Clique) (int64, cc.Stats, error) { return call(s, g) })
	op.below = graphBelow("subgraph", key, func(net *clique.Network, n int) error {
		got, err := below(net, ccmm.EngineAuto, padGraph(g, n))
		if err == nil && got != want {
			err = fmt.Errorf("count %d, want %d", got, want)
		}
		return err
	})
	return op
}

// c4detectOp scripts the constant-round 4-cycle detection.
func c4detectOp(key string, g *cc.Graph) libOp {
	want := graphs.HasC4Ref(g)
	op := scalarOp(key, want, func(s *cc.Clique) (bool, cc.Stats, error) { return s.DetectFourCycle(g) })
	op.below = graphBelow("subgraph", key, func(net *clique.Network, n int) error {
		got, err := subgraph.DetectC4(net, padGraph(g, n))
		if err == nil && got != want {
			err = fmt.Errorf("detection %v, want %v", got, want)
		}
		return err
	})
	return op
}

// girthAnswer is Girth's (value, ok) pair.
type girthAnswer struct {
	value int
	ok    bool
}

// girthOp scripts Girth on a directed or undirected graph.
func girthOp(key string, g *cc.Graph) libOp {
	var want girthAnswer
	want.value, want.ok = graphs.GirthRef(g)
	op := scalarOp(key, want, func(s *cc.Clique) (girthAnswer, cc.Stats, error) {
		v, ok, st, err := s.Girth(g)
		return girthAnswer{v, ok}, st, err
	})
	op.below = graphBelow("girth", key, func(net *clique.Network, n int) (err error) {
		var got girthAnswer
		if g.Directed() {
			got.value, got.ok, err = girth.Directed(net, ccmm.EngineAuto, padGraph(g, n))
		} else {
			got.value, got.ok, err = girth.Undirected(net, ccmm.EngineAuto, padGraph(g, n), girth.Opts{})
		}
		if err == nil && got != want {
			err = fmt.Errorf("girth %v, want %v", got, want)
		}
		return err
	})
	return op
}

// sparseSquareOp scripts SquareAdjacencySparse (the forced sparse engine)
// on an undirected graph given by its adjacency matrix.
func sparseSquareOp(key string, adj cc.Mat) libOp {
	want := refProduct(mulInt, adj, adj)
	wantSum := sumRows(want, len(want))
	g := graphOf(adj)
	op := matOp(key, want, func(s *cc.Clique) (cc.Mat, cc.Stats, error) { return s.SquareAdjacencySparse(g) })
	op.below = func(x *belowCtx) error {
		r := x.rigs.at(x.n)
		var sq *ccmm.RowMat[int64]
		err := x.span("subgraph", key, func() (err error) {
			r.net.Reset()
			sq, err = subgraph.SparseSquareScratch(r.net, r.sc, padGraph(g, x.n))
			return err
		})
		if err != nil {
			return err
		}
		if err := x.checkRounds(r.net); err != nil {
			return err
		}
		return verifyRows(sq.Rows, want, wantSum, false)
	}
	return op
}
