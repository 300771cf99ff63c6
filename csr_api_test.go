package algclique_test

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/ccmm"
)

// sparseMatFor draws an n×n integer matrix with roughly perRow nonzeros
// per row.
func sparseMatFor(rng *rand.Rand, n, perRow int, maxVal int64) algclique.Mat {
	m := make(algclique.Mat, n)
	for v := range m {
		m[v] = make([]int64, n)
		for k := 0; k < perRow; k++ {
			m[v][rng.IntN(n)] = 1 + rng.Int64N(maxVal)
		}
	}
	return m
}

// expandProduct flattens either arm of a CSR product into a dense matrix
// for comparison against the dense API.
func expandProduct(p algclique.CSRProduct, zero, one int64) algclique.Mat {
	if p.IsSparse() {
		return p.Sparse.Dense(zero, one)
	}
	return p.Dense
}

// TestCSRAPIMatMul: MatMulCSR matches MatMul entry for entry, stays
// sparse on sparse inputs, and round-trips through CSRFromMat.
func TestCSRAPIMatMul(t *testing.T) {
	for _, n := range []int{5, 16, 33, 64} {
		rng := rand.New(rand.NewPCG(uint64(n), 3))
		a := sparseMatFor(rng, n, 2, 9)
		b := sparseMatFor(rng, n, 2, 9)
		ca, err := algclique.CSRFromMat(a, 0)
		if err != nil {
			t.Fatal(err)
		}
		cb, err := algclique.CSRFromMat(b, 0)
		if err != nil {
			t.Fatal(err)
		}
		s := openSession(t, n)
		want, _, err := s.MatMul(a, b)
		if err != nil {
			t.Fatalf("n=%d dense: %v", n, err)
		}
		got, stats, err := s.MatMulCSR(ca, cb)
		if err != nil {
			t.Fatalf("n=%d CSR: %v", n, err)
		}
		if !reflect.DeepEqual(expandProduct(got, 0, 1), want) {
			t.Fatalf("n=%d: CSR product differs from dense MatMul", n)
		}
		if stats.Rounds <= 0 {
			t.Fatalf("n=%d: no rounds recorded", n)
		}
	}
}

// TestCSRAPIDenseInputFallsBack: a dense operand routes to a dense
// engine and comes back as a dense matrix, bit-identical to MatMul.
func TestCSRAPIDenseInputFallsBack(t *testing.T) {
	const n = 48
	a := make(algclique.Mat, n)
	for v := range a {
		a[v] = make([]int64, n)
		for j := range a[v] {
			a[v][j] = int64(1 + (v+j)%5)
		}
	}
	ca, err := algclique.CSRFromMat(a, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := openSession(t, n)
	got, _, err := s.MatMulCSR(ca, ca)
	if err != nil {
		t.Fatal(err)
	}
	if got.IsSparse() {
		t.Fatal("dense operands stayed sparse; want dense fallback")
	}
	want, _, err := s.MatMul(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Dense, want) {
		t.Fatal("densified CSR product differs from MatMul")
	}
}

// TestCSRAPISquareAdjacency: SquareAdjacencyCSR on a nil-Val adjacency
// equals SquareAdjacencySparse (2-walk counts) on the same graph.
func TestCSRAPISquareAdjacency(t *testing.T) {
	const n = 100 // large enough that the Auto census prefers the CSR plane
	rng := rand.New(rand.NewPCG(7, 8))
	g := algclique.NewGraph(n, false)
	am := make(algclique.Mat, n)
	for v := range am {
		am[v] = make([]int64, n)
	}
	for i := 0; i < 2*n; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v {
			g.AddEdge(u, v)
			am[u][v], am[v][u] = 1, 1
		}
	}
	s := openSession(t, n)
	want, _, err := s.SquareAdjacencySparse(g)
	if err != nil {
		t.Fatal(err)
	}
	adj, err := algclique.CSRFromMat(am, 0)
	if err != nil {
		t.Fatal(err)
	}
	adj.Val = nil // adjacency encoding: structure only
	got, stats, err := s.SquareAdjacencyCSR(adj)
	if err != nil {
		t.Fatal(err)
	}
	if !got.IsSparse() {
		t.Fatal("sparse adjacency square densified")
	}
	if stats.Rounds <= 0 || stats.Words <= 0 {
		t.Fatalf("stats = %d rounds / %d words; the deferred ledger capture is broken", stats.Rounds, stats.Words)
	}
	if !reflect.DeepEqual(expandProduct(got, 0, 1), want) {
		t.Fatal("SquareAdjacencyCSR differs from SquareAdjacencySparse")
	}
}

// TestCSRAPIDistanceProduct: DistanceProductCSR with unstored = Inf
// matches DistanceProduct on the expanded matrices.
func TestCSRAPIDistanceProduct(t *testing.T) {
	const n = 24
	rng := rand.New(rand.NewPCG(9, 10))
	d := make(algclique.Mat, n)
	for v := range d {
		d[v] = make([]int64, n)
		for j := range d[v] {
			if rng.IntN(6) == 0 {
				d[v][j] = 1 + rng.Int64N(20)
			} else {
				d[v][j] = algclique.Inf
			}
		}
	}
	cd, err := algclique.CSRFromMat(d, algclique.Inf)
	if err != nil {
		t.Fatal(err)
	}
	s := openSession(t, n)
	want, _, err := s.DistanceProduct(d, d)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.DistanceProductCSR(cd, cd)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(expandProduct(got, algclique.Inf, 0), want) {
		t.Fatal("DistanceProductCSR differs from DistanceProduct")
	}
}

// TestCSRAPIAPSP: APSPCSR distances equal the dense APSP distances on a
// sparse weighted digraph, and stay sparse when the graph is disconnected
// enough.
func TestCSRAPIAPSP(t *testing.T) {
	const n = 30
	rng := rand.New(rand.NewPCG(11, 12))
	g := algclique.NewWeighted(n, true)
	wm := make(algclique.Mat, n)
	for v := range wm {
		wm[v] = make([]int64, n)
		for j := range wm[v] {
			wm[v][j] = algclique.Inf
		}
	}
	for i := 0; i < n; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v {
			w := 1 + rng.Int64N(9)
			g.SetEdge(u, v, w)
			wm[u][v] = w
		}
	}
	s := openSession(t, n)
	want, _, err := s.APSP(g)
	if err != nil {
		t.Fatal(err)
	}
	// The CSR operand stores the finite off-diagonal entries of the
	// weight matrix.
	cw, err := algclique.CSRFromMat(wm, algclique.Inf)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.APSPCSR(cw)
	if err != nil {
		t.Fatal(err)
	}
	dist := expandProduct(got, algclique.Inf, 0)
	if !reflect.DeepEqual(dist, want.Dist) {
		t.Fatal("APSPCSR distances differ from APSP")
	}
}

// TestCSRAPITransitiveClosure: TransitiveClosureCSR equals the dense
// TransitiveClosure reachability matrix.
func TestCSRAPITransitiveClosure(t *testing.T) {
	const n = 26
	rng := rand.New(rand.NewPCG(13, 14))
	g := algclique.NewGraph(n, true)
	am := make(algclique.Mat, n)
	for v := range am {
		am[v] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v {
			g.AddEdge(u, v)
			am[u][v] = 1
		}
	}
	s := openSession(t, n)
	want, _, err := s.TransitiveClosure(g)
	if err != nil {
		t.Fatal(err)
	}
	adj, err := algclique.CSRFromMat(am, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := s.TransitiveClosureCSR(adj)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(expandProduct(got, 0, 1), want) {
		t.Fatal("TransitiveClosureCSR differs from TransitiveClosure")
	}
}

// TestCSRAPIAPSPValueFree: a nil Val means every stored edge has weight 0,
// for APSPCSR as for DistanceProductCSR — reachable pairs are at distance
// 0, the rest unstored.
func TestCSRAPIAPSPValueFree(t *testing.T) {
	const n = 9
	path := &algclique.CSR{N: n, RowPtr: make([]int64, n+1)}
	for v := 0; v < n-1; v++ {
		path.Col = append(path.Col, int32(v+1))
		path.RowPtr[v+1] = int64(len(path.Col))
	}
	path.RowPtr[n] = path.RowPtr[n-1]
	got, _, err := openSession(t, n).APSPCSR(path)
	if err != nil {
		t.Fatal(err)
	}
	dist := expandProduct(got, algclique.Inf, 0)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			want := algclique.Inf
			if v >= u {
				want = 0
			}
			if dist[u][v] != want {
				t.Fatalf("dist[%d][%d] = %d, want %d", u, v, dist[u][v], want)
			}
		}
	}
}

// TestCSRAPISessionLedger: CSR operations record in the session ledger
// like any other operation, and operand size mismatches error.
func TestCSRAPISessionLedger(t *testing.T) {
	const n = 16
	s, err := algclique.NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewPCG(17, 18))
	a, err := algclique.CSRFromMat(sparseMatFor(rng, n, 2, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.MatMulCSR(a, a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.MatMulBoolCSR(a, a); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if len(st.Ops) != 2 || st.Ops[0].Op != "MatMulCSR" || st.Ops[1].Op != "MatMulBoolCSR" {
		t.Fatalf("ledger = %+v, want MatMulCSR then MatMulBoolCSR", st.Ops)
	}
	if st.Rounds <= 0 {
		t.Fatalf("session ledger rounds = %d", st.Rounds)
	}

	small, err := algclique.CSRFromMat(sparseMatFor(rng, n-1, 1, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.MatMulCSR(small, small); err == nil {
		t.Fatal("size-mismatched CSR operand accepted")
	}
	if _, err := algclique.CSRFromMat(algclique.Mat{{1, 2}, {3}}, 0); err == nil {
		t.Fatal("ragged matrix accepted by CSRFromMat")
	}
	b := *a
	b.N = n - 1
	if _, _, err := s.MatMulCSR(a, &b); err == nil {
		t.Fatal("operand pair size mismatch accepted")
	}
}

// TestCSRAPIMalformedOperands: a structurally broken CSR crossing the
// public boundary is an error wrapping ErrSize on every CSR entry point —
// as either operand — and never a panic.
func TestCSRAPIMalformedOperands(t *testing.T) {
	ptr := func(n int, fill int64) []int64 { // n+1 row pointers: 0, then fill
		rp := make([]int64, n+1)
		for i := 1; i <= n; i++ {
			rp[i] = fill
		}
		return rp
	}
	cases := []struct {
		name string
		m    *algclique.CSR
	}{
		{"row pointers claim more than stored", &algclique.CSR{N: 8, RowPtr: ptr(8, 5), Col: []int32{1}}},
		{"row pointers claim less than stored", &algclique.CSR{N: 8, RowPtr: ptr(8, 1), Col: []int32{1, 2, 3}}},
		{"short row-pointer array", &algclique.CSR{N: 9, RowPtr: []int64{0, 0}}},
		{"no row pointers", &algclique.CSR{N: 8}},
		{"row pointers start past zero", &algclique.CSR{N: 8, RowPtr: append([]int64{1}, ptr(8, 1)[1:]...), Col: []int32{1}}},
		{"row end past the stored entries", &algclique.CSR{N: 8, RowPtr: []int64{0, 5, 1, 1, 1, 1, 1, 1, 1}, Col: []int32{1}}},
		{"decreasing row pointers", &algclique.CSR{N: 8, RowPtr: []int64{0, 2, 1, 2, 2, 2, 2, 2, 2}, Col: []int32{1, 2}}},
		{"column out of range", &algclique.CSR{N: 8, RowPtr: ptr(8, 1), Col: []int32{8}}},
		{"negative column", &algclique.CSR{N: 8, RowPtr: ptr(8, 1), Col: []int32{-1}}},
		{"columns not increasing", &algclique.CSR{N: 8, RowPtr: ptr(8, 2), Col: []int32{3, 3}}},
		{"value count mismatch", &algclique.CSR{N: 8, RowPtr: ptr(8, 2), Col: []int32{1, 2}, Val: []int64{7}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, err := algclique.NewClique(c.m.N)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			good := &algclique.CSR{N: c.m.N, RowPtr: make([]int64, c.m.N+1)}
			pair := func(f func(a, b *algclique.CSR, opts ...algclique.CallOption) (algclique.CSRProduct, algclique.Stats, error)) func() error {
				return func() error {
					if _, _, err := f(good, c.m); !errors.Is(err, ccmm.ErrSize) {
						return errors.Join(errors.New("as right operand"), err)
					}
					_, _, err := f(c.m, good)
					return err
				}
			}
			one := func(f func(a *algclique.CSR, opts ...algclique.CallOption) (algclique.CSRProduct, algclique.Stats, error)) func() error {
				return func() error { _, _, err := f(c.m); return err }
			}
			for op, call := range map[string]func() error{
				"MatMulCSR":            pair(s.MatMulCSR),
				"MatMulBoolCSR":        pair(s.MatMulBoolCSR),
				"DistanceProductCSR":   pair(s.DistanceProductCSR),
				"SquareAdjacencyCSR":   one(s.SquareAdjacencyCSR),
				"APSPCSR":              one(s.APSPCSR),
				"TransitiveClosureCSR": one(s.TransitiveClosureCSR),
			} {
				func() {
					defer func() {
						if r := recover(); r != nil {
							t.Errorf("%s panicked: %v", op, r)
						}
					}()
					if err := call(); !errors.Is(err, ccmm.ErrSize) {
						t.Errorf("%s: err = %v, want an error wrapping ErrSize", op, err)
					}
				}()
			}
		})
	}
}
