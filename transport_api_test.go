package algclique

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
)

func randMatT(seed uint64, n int) Mat {
	rng := rand.New(rand.NewPCG(seed, 0))
	m := make(Mat, n)
	for i := range m {
		m[i] = make([]int64, n)
		for j := range m[i] {
			m[i][j] = rng.Int64N(100) - 50
		}
	}
	return m
}

// TestSessionTransportsAgree runs the same products and graph operations
// on a default (direct) session and a WithWireTransport session: results
// and reported Stats, the product ledger included, must be identical. The
// counting products of CountTriangles and CountFiveCycles and the D·A
// products of APSPUnweighted's Seidel recursion ship residues mod 2^b,
// which only the wire masks; at n = 144 A³ and D·A (15 bits) run on the
// bilinear engine and A² (8 bits) on the 3D one.
func TestSessionTransportsAgree(t *testing.T) {
	for _, n := range []int{10, 27, 144} {
		a, b := randMatT(1, n), randMatT(2, n)
		g := GNP(n, 0.3, false, uint64(n))
		type outcome struct {
			mm, dp, bm        Mat
			mmSt, dpSt        Stats
			bmSt              Stats
			tri, c5           int64
			apsp              *APSPResult
			triSt, c5St, apSt Stats
		}
		run := func(opts ...SessionOption) outcome {
			s, err := NewClique(n, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var o outcome
			if o.mm, o.mmSt, err = s.MatMul(a, b); err != nil {
				t.Fatal(err)
			}
			if o.dp, o.dpSt, err = s.DistanceProduct(a, b); err != nil {
				t.Fatal(err)
			}
			// A Boolean product on the padded scheme size (16) runs the
			// packed 3D engine Auto picks over the bilinear one.
			if o.bm, o.bmSt, err = s.MatMulBool(boolOf(a), boolOf(b)); err != nil {
				t.Fatal(err)
			}
			if len(o.bmSt.Products) != 1 || o.bmSt.Products[0].Engine != "semiring-3d" {
				t.Fatalf("n=%d: Boolean product ledger %+v, want one semiring-3d row", n, o.bmSt.Products)
			}
			if o.tri, o.triSt, err = s.CountTriangles(g); err != nil {
				t.Fatal(err)
			}
			if o.c5, o.c5St, err = s.CountFiveCycles(g); err != nil {
				t.Fatal(err)
			}
			if o.apsp, o.apSt, err = s.APSPUnweighted(g); err != nil {
				t.Fatal(err)
			}
			for _, st := range []Stats{o.triSt, o.c5St, o.apSt} {
				if len(st.Products) == 0 {
					t.Fatalf("n=%d: a graph operation's Stats list no product", n)
				}
			}
			return o
		}
		direct := run()
		if wire := run(WithWireTransport()); !reflect.DeepEqual(direct, wire) {
			t.Fatalf("n=%d: direct and wire sessions disagree", n)
		}
		if n == 144 {
			engines := map[string]bool{}
			for _, st := range []Stats{direct.c5St, direct.apSt} {
				for _, p := range st.Products {
					engines[p.Engine] = true
				}
			}
			if !engines["fast-bilinear"] || !engines["semiring-3d"] {
				t.Fatalf("n=144: counting and Seidel products ran on %v, want both dense engines", engines)
			}
		}
	}
}

// boolOf is the 0/1 matrix of m's odd entries.
func boolOf(m Mat) Mat {
	out := make(Mat, len(m))
	for i, row := range m {
		out[i] = make([]int64, len(row))
		for j, x := range row {
			out[i][j] = x & 1
		}
	}
	return out
}

// TestSessionTrim checks Trim keeps the session usable and correct.
func TestSessionTrim(t *testing.T) {
	const n = 27
	a, b := randMatT(3, n), randMatT(4, n)
	s, err := NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	first, _, err := s.MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	s.Trim()
	again, _, err := s.MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Fatalf("product changed after Trim")
	}
}

// TestSessionAPSPTransportsAgree covers a full application pipeline
// (iterated products, a witness-tagged product, broadcasts) across both
// transports: distances, routing table and Stats all agree.
func TestSessionAPSPTransportsAgree(t *testing.T) {
	g := NewGraph(13, false)
	rng := rand.New(rand.NewPCG(9, 9))
	for u := 0; u < 13; u++ {
		for v := u + 1; v < 13; v++ {
			if rng.IntN(3) == 0 {
				g.AddEdge(u, v)
			}
		}
	}
	run := func(opts ...SessionOption) (*APSPResult, Stats) {
		s, err := NewClique(13, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		res, st, err := s.APSPUnweightedWithRouting(g)
		if err != nil {
			t.Fatal(err)
		}
		return res, st
	}
	dRes, dSt := run()
	res, st := run(WithWireTransport())
	if !reflect.DeepEqual(dRes.Dist, res.Dist) {
		t.Fatal("APSP distances differ between direct and wire")
	}
	if !reflect.DeepEqual(dRes.Next, res.Next) {
		t.Fatal("APSP routing tables differ between direct and wire")
	}
	if !reflect.DeepEqual(dSt, st) {
		t.Fatalf("APSP stats differ between transports:\ndirect: %+v\nwire: %+v", dSt, st)
	}
}

// TestRoutingChargesOneProduct pins what the routing table costs at the
// session: APSPUnweightedWithRouting charges exactly APSPUnweighted's
// rounds and words plus one DistanceProduct3D's, which is oblivious, so
// its charge is read off an all-zero product on a bare network.
func TestRoutingChargesOneProduct(t *testing.T) {
	const n = 144
	g := GNP(n, 0.1, false, 17)
	s, err := NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, seidel, err := s.APSPUnweighted(g)
	if err != nil {
		t.Fatal(err)
	}
	res, routed, err := s.APSPUnweightedWithRouting(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateRouting(UnitWeights(g), res); err != nil {
		t.Fatal(err)
	}
	net := clique.New(n)
	if _, _, err := ccmm.DistanceProduct3D(net, nil, ccmm.NewRowMat[int64](n), ccmm.NewRowMat[int64](n), int64(n)); err != nil {
		t.Fatal(err)
	}
	product := net.Stats()
	if want := seidel.Rounds + product.Rounds; routed.Rounds != want {
		t.Errorf("rounds = %d, want %d (Seidel) + %d (one product) = %d", routed.Rounds, seidel.Rounds, product.Rounds, want)
	}
	if want := seidel.Words + product.Words; routed.Words != want {
		t.Errorf("words = %d, want %d (Seidel) + %d (one product) = %d", routed.Words, seidel.Words, product.Words, want)
	}
}
