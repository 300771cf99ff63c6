package algclique_test

import (
	"errors"
	"reflect"
	"testing"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/subgraph"
)

func adjacencyMat(g *cc.Graph) cc.Mat {
	n := g.N()
	a := make(cc.Mat, n)
	for v := 0; v < n; v++ {
		a[v] = make([]int64, n)
		for _, u := range g.Neighbors(v) {
			a[v][u] = 1
		}
	}
	return a
}

// TestAutoRoutesSparseGNP is the PR's acceptance case: on GNP(n=100,
// p=8/n) the Auto session routes MatMul through the sparse engine with
// strictly fewer rounds than the dense plan, and the product is
// bit-identical to the dense engines.
func TestAutoRoutesSparseGNP(t *testing.T) {
	const n = 100
	a := adjacencyMat(cc.GNP(n, 8.0/n, false, 7))

	auto, err := cc.NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	pa, sa, err := auto.MatMul(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Routing != "sparse" {
		t.Fatalf("Auto routing = %q, want sparse", sa.Routing)
	}

	dense, err := cc.NewClique(n, cc.WithSparseThreshold(0))
	if err != nil {
		t.Fatal(err)
	}
	defer dense.Close()
	pd, sd, err := dense.MatMul(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if sd.Routing != "" {
		t.Fatalf("threshold-0 routing = %q, want empty (no census)", sd.Routing)
	}
	if sa.Rounds >= sd.Rounds {
		t.Fatalf("sparse route used %d rounds, dense plan %d — must be strictly fewer", sa.Rounds, sd.Rounds)
	}
	if !reflect.DeepEqual(pa, pd) {
		t.Fatal("sparse-routed product differs from the dense plan")
	}
	p3, _, err := openSession(t, n, cc.WithEngine(cc.Semiring3D)).MatMul(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pa, p3) {
		t.Fatal("sparse-routed product differs from Engine3D")
	}
}

// TestSparseRoutingInStats: every routed product reports its decision; a
// dense input on an Auto session reports "dense".
func TestSparseRoutingInStats(t *testing.T) {
	const n = 64
	dense := adjacencyMat(cc.GNP(n, 0.5, false, 3))
	s, err := cc.NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, st, err := s.MatMul(dense, dense)
	if err != nil {
		t.Fatal(err)
	}
	if st.Routing != "dense" {
		t.Fatalf("dense input routing = %q, want dense", st.Routing)
	}
	// The ledger carries the same tag.
	ledger := s.Stats()
	if len(ledger.Ops) != 1 || ledger.Ops[0].Routing != "dense" {
		t.Fatalf("ledger routing = %+v", ledger.Ops)
	}

	// DistanceProduct and MatMulBool census too.
	sparse := adjacencyMat(cc.GNP(n, 2.0/n, false, 5))
	if _, st, err = s.MatMulBool(sparse, sparse); err != nil {
		t.Fatal(err)
	}
	if st.Routing == "" {
		t.Fatal("MatMulBool on an Auto session reported no routing decision")
	}
	d := make(cc.Mat, n)
	for v := range d {
		d[v] = make([]int64, n)
		for j := range d[v] {
			if sparse[v][j] == 0 {
				d[v][j] = cc.Inf
			} else {
				d[v][j] = 1
			}
		}
	}
	if _, st, err = s.DistanceProduct(d, d); err != nil {
		t.Fatal(err)
	}
	if st.Routing == "" {
		t.Fatal("DistanceProduct on an Auto session reported no routing decision")
	}
}

// TestForcedSparseEngineSession: WithEngine(Sparse) forces the engine and
// surfaces ErrSparseTooDense on dense inputs.
func TestForcedSparseEngineSession(t *testing.T) {
	const n = 64
	a := adjacencyMat(cc.GNP(n, 2.0/n, false, 11))
	s, err := cc.NewClique(n, cc.WithEngine(cc.Sparse))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	got, _, err := s.MatMul(a, a)
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := openSession(t, n, cc.WithEngine(cc.Semiring3D)).MatMul(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("forced sparse product differs from Engine3D")
	}

	dense := adjacencyMat(cc.GNP(n, 0.9, false, 12))
	if _, _, err := s.MatMul(dense, dense); !errors.Is(err, cc.ErrSparseTooDense) {
		t.Fatalf("forced sparse on dense input err = %v, want ErrSparseTooDense", err)
	}
}

// TestSquareAdjacencySparseSentinels: the documented restrictions surface
// as wrapped sentinels the session layer (and users) can test with
// errors.Is, at both the public and the subgraph layer.
func TestSquareAdjacencySparseSentinels(t *testing.T) {
	// Directed input.
	dir := cc.GNP(12, 0.2, true, 4)
	if _, _, err := openSession(t, 12).SquareAdjacencySparse(dir); !errors.Is(err, cc.ErrSparseDirected) {
		t.Fatalf("directed err = %v, want ErrSparseDirected", err)
	}

	// Too dense: both the public and the internal sentinel must match,
	// plus the engine-level one they wrap.
	_, _, err := openSession(t, 20).SquareAdjacencySparse(cc.Complete(20, false))
	if !errors.Is(err, cc.ErrSparseTooDense) {
		t.Fatalf("dense err = %v, want ErrSparseTooDense", err)
	}
	if !errors.Is(err, subgraph.ErrTooDense) || !errors.Is(err, ccmm.ErrTooDense) {
		t.Fatalf("dense err = %v must wrap the subgraph and ccmm sentinels", err)
	}

	// Too small under WithoutPadding; padded otherwise.
	small := cc.Cycle(5, false)
	if _, _, err := openSession(t, 5, cc.WithoutPadding()).SquareAdjacencySparse(small); !errors.Is(err, cc.ErrSparseTooSmall) {
		t.Fatalf("strict small err = %v, want ErrSparseTooSmall", err)
	}
	s := openSession(t, 5)
	sq, st, err := s.SquareAdjacencySparse(small)
	if err != nil {
		t.Fatalf("padded small instance: %v", err)
	}
	// The engine is forced on this path, so no planner decision is
	// reported (same contract as WithEngine(Sparse)); the engine's own
	// census appears in the phase ledger instead.
	if st.Routing != "" {
		t.Fatalf("sparse square routing = %q, want empty (forced engine)", st.Routing)
	}
	census := false
	for _, p := range st.Phases {
		if p.Name == "mmsparse/census" {
			census = true
		}
	}
	if !census {
		t.Fatalf("sparse square phases missing mmsparse/census: %+v", st.Phases)
	}
	want, _, err := s.MatMul(adjacencyMat(small), adjacencyMat(small))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sq, want) {
		t.Fatal("padded sparse square differs from A²")
	}
}

// TestSparseTransportsAgree: the sparse route charges identical ledgers —
// rounds, words, flushes and every phase — on the direct and wire
// transports.
func TestSparseTransportsAgree(t *testing.T) {
	const n = 64
	a := adjacencyMat(cc.GNP(n, 2.0/n, false, 21))
	run := func(opts ...cc.SessionOption) cc.Stats {
		s, err := cc.NewClique(n, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		_, st, err := s.MatMul(a, a)
		if err != nil {
			t.Fatal(err)
		}
		if st.Routing != "sparse" {
			t.Fatalf("routing = %q, want sparse", st.Routing)
		}
		return st
	}
	ds := run()
	if ws := run(cc.WithWireTransport()); !reflect.DeepEqual(ds, ws) {
		t.Fatalf("ledgers differ:\ndirect %+v\nwire   %+v", ds, ws)
	}
}

// TestSparseThresholdReachesInnerProducts: WithSparseThreshold governs
// products resolved deep inside graph algorithms too — the session arms
// the threshold on its network, so a threshold-0 session runs no census
// phase anywhere, and a default session censuses the inner A² product of
// CountTriangles.
func TestSparseThresholdReachesInnerProducts(t *testing.T) {
	const n = 64
	g := cc.GNP(n, 2.0/n, false, 31)

	hasPhase := func(st cc.Stats, name string) bool {
		for _, p := range st.Phases {
			if p.Name == name {
				return true
			}
		}
		return false
	}

	off, err := cc.NewClique(n, cc.WithSparseThreshold(0))
	if err != nil {
		t.Fatal(err)
	}
	defer off.Close()
	_, stOff, err := off.CountTriangles(g)
	if err != nil {
		t.Fatal(err)
	}
	if hasPhase(stOff, "mmplan/census") {
		t.Fatalf("threshold-0 session still ran the density census: %+v", stOff.Phases)
	}

	on, err := cc.NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer on.Close()
	tri, stOn, err := on.CountTriangles(g)
	if err != nil {
		t.Fatal(err)
	}
	if !hasPhase(stOn, "mmplan/census") {
		t.Fatalf("default session ran no census on CountTriangles' inner product: %+v", stOn.Phases)
	}
	triOff, _, err := off.CountTriangles(g)
	if err != nil {
		t.Fatal(err)
	}
	if tri != triOff {
		t.Fatalf("triangle counts diverge: census %d, static %d", tri, triOff)
	}
}
