package ccmm_test

import (
	"errors"
	"math/rand/v2"
	"os"
	"reflect"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// csrOf compresses a distributed row matrix into CSR, keeping non-kept
// entries out (the reference conversion for the differential tests).
func csrOf[T any](m *ccmm.RowMat[T], keep func(T) bool) *matrix.CSR[T] {
	return matrix.CSRFromDense(m.Collect(), keep)
}

// TestCSRMatchesDenseAllAlgebras is the differential suite of the CSR
// operand form on its own seed: for every algebra the CSR path serves and a
// sample of clique sizes, the CSR product must equal the compressed dense
// 3D product on every transport, charging the RowMat form's ledger.
func TestCSRMatchesDenseAllAlgebras(t *testing.T) {
	for _, n := range []int{8, 9, 13, 16, 27, 33, 64, 100} {
		rng := rand.New(rand.NewPCG(uint64(n), 77))
		base := sparseIntMat(rng, n, 2, 50)
		base2 := sparseIntMat(rng, n, 2, 50)

		diffSparse[int64](t, "int64", n, ring.Int64{}, ring.Int64{}, base, base2)

		mp := ring.MinPlus{}
		toMP := func(x int64) int64 {
			if x == 0 {
				return ring.Inf
			}
			return x
		}
		diffSparse[int64](t, "min-plus", n, mp, mp, mapMat(base, toMP), mapMat(base2, toMP))

		toBool := func(x int64) int64 { return ring.Bool{}.Add(x, 0) }
		diffSparse[int64](t, "bool", n, ring.Bool{}, ring.Int64{}, mapMat(base, toBool), mapMat(base2, toBool))
		diffSparse[int64](t, "packed-bool", n, ring.Bool{}, ring.PackedBit{}, mapMat(base, toBool), mapMat(base2, toBool))
	}
}

// TestCSRNilValAdjacency: a nil-Val CSR operand (the adjacency encoding)
// behaves exactly like the same structure with explicit one values.
func TestCSRNilValAdjacency(t *testing.T) {
	const n = 32
	rng := rand.New(rand.NewPCG(15, 16))
	a := sparseIntMat(rng, n, 3, 1)
	b := sparseIntMat(rng, n, 3, 1)
	keep := func(x int64) bool { return x != 0 }
	sa, sb := csrOf(a, keep), csrOf(b, keep)

	net := clique.New(n)
	defer net.Close()
	withVals, err := ccmm.SparseMulCSR[int64](net, nil, ring.Bool{}, ring.PackedBit{}, sa, sb)
	if err != nil {
		t.Fatal(err)
	}
	saN := &matrix.CSR[int64]{N: n, RowPtr: sa.RowPtr, Col: sa.Col}
	sbN := &matrix.CSR[int64]{N: n, RowPtr: sb.RowPtr, Col: sb.Col}
	net2 := clique.New(n)
	defer net2.Close()
	nilVals, err := ccmm.SparseMulCSR[int64](net2, nil, ring.Bool{}, ring.PackedBit{}, saN, sbN)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withVals, nilVals) {
		t.Fatal("nil-Val adjacency product differs from explicit-value product")
	}
	st, st2 := net.Stats(), net2.Stats()
	if st.Rounds != st2.Rounds || st.Words != st2.Words {
		t.Fatalf("nil-Val ledger %d/%d differs from explicit %d/%d", st2.Rounds, st2.Words, st.Rounds, st.Words)
	}
}

// TestCSRScratchReuse: distinct CSR products through one shared scratch
// match fresh-scratch runs — pooled slot tables and arenas must not leak
// state.
func TestCSRScratchReuse(t *testing.T) {
	const n = 33
	r := ring.Int64{}
	keep := func(x int64) bool { return x != 0 }
	sc := ccmm.NewScratch()
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewPCG(6, uint64(trial)))
		a := csrOf(sparseIntMat(rng, n, 1+trial, 20), keep)
		b := csrOf(sparseIntMat(rng, n, 2, 20), keep)
		shared := clique.New(n)
		got, err := ccmm.SparseMulCSR[int64](shared, sc, r, r, a, b)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		fresh := clique.New(n)
		want, err := ccmm.SparseMulCSR[int64](fresh, nil, r, r, a, b)
		if err != nil {
			t.Fatalf("trial %d fresh: %v", trial, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: shared-scratch CSR product differs from fresh", trial)
		}
		if !reflect.DeepEqual(shared.Stats(), fresh.Stats()) {
			t.Fatalf("trial %d: shared-scratch ledger %+v differs from fresh %+v",
				trial, shared.Stats(), fresh.Stats())
		}
		shared.Close()
		fresh.Close()
	}
}

// TestCSRDensityBoundary pins the shared census bound on the CSR path:
// Σ ca·rb = 2n²−1 is accepted, 2n² rejected with ErrTooDense.
func TestCSRDensityBoundary(t *testing.T) {
	const n = 8
	r := ring.Int64{}
	keep := func(x int64) bool { return x != 0 }

	s, tm := withColRowCounts(n, []int{8, 8, 7}, []int{8, 7, 1})
	net := clique.New(n)
	defer net.Close()
	if _, err := ccmm.SparseMulCSR[int64](net, nil, r, r, csrOf(s, keep), csrOf(tm, keep)); err != nil {
		t.Fatalf("Σ = 2n²−1 rejected: %v", err)
	}

	s, tm = withColRowCounts(n, []int{8, 8, 8}, []int{8, 7, 1})
	net2 := clique.New(n)
	defer net2.Close()
	_, err := ccmm.SparseMulCSR[int64](net2, nil, r, r, csrOf(s, keep), csrOf(tm, keep))
	if !errors.Is(err, ccmm.ErrTooDense) {
		t.Fatalf("Σ = 2n² err = %v, want ErrTooDense", err)
	}
}

// TestCSRRoutedDensifyFallback drives the density-aware CSR planner
// through all three outcomes: sparse via census, dense via census on dense
// operands (densified through the pool), and the transparent fallback when
// the planner's estimate is refuted by the exact census.
func TestCSRRoutedDensifyFallback(t *testing.T) {
	const n = 100
	p := ccmm.PlanFor(n, ccmm.EngineAuto)
	keep := func(x int64) bool { return x != 0 }
	rng := rand.New(rand.NewPCG(23, 24))
	a := sparseIntMat(rng, n, 4, 50)
	b := sparseIntMat(rng, n, 4, 50)

	net := clique.New(n)
	defer net.Close()
	got, route, err := p.MulIntCSRRouted(net, nil, csrOf(a, keep), csrOf(b, keep))
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsSparse() || route.Engine != ccmm.EngineSparse || !route.Census || route.Fallback {
		t.Fatalf("sparse input route = %+v (sparse=%v), want sparse via census", route, got.IsSparse())
	}
	ref := clique.New(n)
	defer ref.Close()
	dense, err := ccmm.Semiring3D[int64](ref, nil, ring.Int64{}, ring.Int64{}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Sparse, csrOf(dense, keep)) {
		t.Fatal("routed CSR product differs from compressed dense 3D")
	}

	// Dense operands: routed to the dense engine through densification.
	dm := ccmm.NewRowMat[int64](n)
	for v := range dm.Rows {
		for j := range dm.Rows[v] {
			dm.Rows[v][j] = 1 + int64((v+j)%7)
		}
	}
	net2 := clique.New(n)
	defer net2.Close()
	got2, route2, err := p.MulIntCSRRouted(net2, nil, csrOf(dm, keep), csrOf(dm, keep))
	if err != nil {
		t.Fatal(err)
	}
	if got2.IsSparse() || route2.Engine != ccmm.EngineFast || !route2.Census || route2.Fallback {
		t.Fatalf("dense input route = %+v (sparse=%v), want dense via census", route2, got2.IsSparse())
	}
	ref2 := clique.New(n)
	defer ref2.Close()
	want2, err := ccmm.Semiring3D[int64](ref2, nil, ring.Int64{}, ring.Int64{}, dm, dm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got2.Dense.Rows, want2.Rows) {
		t.Fatal("densified product differs from dense 3D")
	}

	// Skewed operands: row counts look sparse, column weights are too
	// dense — the exact census rejects and the product completes dense.
	skewS := ccmm.NewRowMat[int64](n)
	skewT := ccmm.NewRowMat[int64](n)
	for v := 0; v < n; v++ {
		skewS.Rows[v][0] = 1
		skewS.Rows[v][1] = 1
	}
	for z := 0; z < n; z++ {
		skewT.Rows[0][z] = 1
		skewT.Rows[1][z] = 1
	}
	net3 := clique.New(n)
	defer net3.Close()
	got3, route3, err := p.MulIntCSRRouted(net3, nil, csrOf(skewS, keep), csrOf(skewT, keep))
	if err != nil {
		t.Fatal(err)
	}
	if got3.IsSparse() || !route3.Fallback || route3.Engine != ccmm.EngineFast {
		t.Fatalf("skewed input route = %+v, want dense-fallback", route3)
	}
}

// TestCSRRoutedBoolMinPlus: the Boolean and min-plus routed entries match
// their dense references, and sparse Boolean products come back value-free.
// The plan forces EngineSparse — at n = 64 the auto planner correctly
// prefers the dense fast-bilinear engine, and this test is about the
// sparse path.
func TestCSRRoutedBoolMinPlus(t *testing.T) {
	const n = 64
	p := ccmm.PlanFor(n, ccmm.EngineSparse)
	keep := func(x int64) bool { return x != 0 }
	rng := rand.New(rand.NewPCG(25, 26))
	a := sparseIntMat(rng, n, 3, 1)
	b := sparseIntMat(rng, n, 3, 1)
	ca, cb := csrOf(a, keep), csrOf(b, keep)

	net := clique.New(n)
	defer net.Close()
	got, route, err := p.MulBoolCSRRouted(net, nil, ca, cb)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsSparse() || route.Engine != ccmm.EngineSparse {
		t.Fatalf("bool route = %+v (sparse=%v), want sparse", route, got.IsSparse())
	}
	if got.Sparse.Val != nil {
		t.Fatal("sparse Boolean product carries values; want nil Val")
	}
	ref := clique.New(n)
	defer ref.Close()
	wantB, _, err := p.MulBoolRouted(ref, nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	wantCSR := csrOf(wantB, keep)
	if !reflect.DeepEqual(got.Sparse.RowPtr, wantCSR.RowPtr) || !reflect.DeepEqual(got.Sparse.Col, wantCSR.Col) {
		t.Fatal("sparse Boolean product structure differs from dense Boolean product")
	}

	toMP := func(x int64) int64 {
		if x == 0 {
			return ring.Inf
		}
		return x
	}
	ma, mb := mapMat(a, toMP), mapMat(b, toMP)
	keepMP := func(x int64) bool { return !ring.IsInf(x) }
	net2 := clique.New(n)
	defer net2.Close()
	got2, _, err := p.MulMinPlusCSRRouted(net2, nil, csrOf(ma, keepMP), csrOf(mb, keepMP))
	if err != nil {
		t.Fatal(err)
	}
	ref2 := clique.New(n)
	defer ref2.Close()
	wantMP, err := ccmm.Semiring3D[int64](ref2, nil, ring.MinPlus{}, ring.MinPlus{}, ma, mb)
	if err != nil {
		t.Fatal(err)
	}
	if !got2.IsSparse() || !reflect.DeepEqual(got2.Sparse, csrOf(wantMP, keepMP)) {
		t.Fatal("min-plus CSR product differs from compressed dense reference")
	}
}

// TestCSRDensifyCapRejects: beyond csrDensifyCap the planner refuses to
// densify — a product that cannot stay sparse errors with ErrTooDense
// instead of allocating Θ(n²) state.
func TestCSRDensifyCapRejects(t *testing.T) {
	const n = 8200 // above the 8192 densify cap; sparse-link network, so cheap
	p := ccmm.PlanFor(n, ccmm.EngineAuto)
	net := clique.New(n)
	defer net.Close()
	net.SetSparseThreshold(0) // census disabled → dense route
	empty := matrix.NewCSR[int64](n)
	_, _, err := p.MulIntCSRRouted(net, nil, empty, empty)
	if !errors.Is(err, ccmm.ErrTooDense) {
		t.Fatalf("densify above cap err = %v, want ErrTooDense", err)
	}
}

// TestCSRNoDenseAllocs: the forced CSR path must never allocate a dense
// row matrix — the process-wide counter the ccbench memory gate watches.
func TestCSRNoDenseAllocs(t *testing.T) {
	const n = 256
	keep := func(x int64) bool { return x != 0 }
	rng := rand.New(rand.NewPCG(31, 7))
	a := csrOf(sparseIntMat(rng, n, 4, 9), keep)
	b := csrOf(sparseIntMat(rng, n, 4, 9), keep)
	net := clique.New(n)
	defer net.Close()
	before := ccmm.DenseAllocs()
	if _, err := ccmm.SparseMulCSR[int64](net, nil, ring.Int64{}, ring.Int64{}, a, b); err != nil {
		t.Fatal(err)
	}
	if d := ccmm.DenseAllocs() - before; d != 0 {
		t.Fatalf("CSR product allocated %d dense row matrices; want 0", d)
	}
}

// gnpCSR draws a GNP(n, c/n)-style adjacency as a nil-Val CSR directly —
// geometric skip sampling, Θ(nnz) work and memory, never a dense row.
func gnpCSR(rng *rand.Rand, n int, avgDeg float64) *matrix.CSR[int64] {
	m := matrix.NewCSR[int64](n)
	p := avgDeg / float64(n)
	if p >= 1 {
		p = 0.999
	}
	for v := 0; v < n; v++ {
		c := -1
		for {
			// Geometric(p) skip to the next present edge.
			u := rng.Float64()
			skip := 1
			for q := 1 - p; u < 1 && q > 0; {
				f := u / q
				if f >= 1 {
					break
				}
				u = f
				skip++
				if skip > n {
					break
				}
			}
			c += skip
			if c >= n {
				break
			}
			m.Col = append(m.Col, int32(c))
		}
		m.RowPtr[v+1] = int64(len(m.Col))
	}
	return m
}

// TestCSRLargeMemoryFootprint squares a GNP(10⁵, 8/n) adjacency on the CSR
// path and asserts no dense n×n buffer is ever allocated — the in-process
// half of the ccbench csr memory gate. Opt-in: it runs only when
// CCMM_CSR_LARGE is set (the CI memory lane sets it) and never under
// -short, so plain `go test ./...` stays fast.
func TestCSRLargeMemoryFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("large-n CSR memory test skipped in -short mode")
	}
	if os.Getenv("CCMM_CSR_LARGE") == "" {
		t.Skip("large-n CSR memory test is opt-in: set CCMM_CSR_LARGE=1")
	}
	const n = 100000
	rng := rand.New(rand.NewPCG(42, 43))
	adj := gnpCSR(rng, n, 8)
	net := clique.New(n)
	defer net.Close()
	before := ccmm.DenseAllocs()
	sq, err := ccmm.SparseMulCSR[int64](net, nil, ring.Bool{}, ring.PackedBit{}, adj, adj)
	if err != nil {
		t.Fatal(err)
	}
	if d := ccmm.DenseAllocs() - before; d != 0 {
		t.Fatalf("GNP(1e5) CSR square allocated %d dense row matrices; want 0", d)
	}
	if sq.NNZ() == 0 {
		t.Fatal("GNP(1e5) square came back empty")
	}
	t.Logf("GNP(%d, 8/n): nnz(A)=%d nnz(A²)=%d rounds=%d words=%d",
		n, adj.NNZ(), sq.NNZ(), net.Rounds(), net.Words())
}
