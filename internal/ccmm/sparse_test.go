package ccmm_test

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// sparseIntMat draws an n×n int64 matrix with roughly perRow nonzeros per
// row (deterministic for a seed).
func sparseIntMat(rng *rand.Rand, n, perRow int, maxVal int64) *ccmm.RowMat[int64] {
	m := ccmm.NewRowMat[int64](n)
	for v := 0; v < n; v++ {
		for k := 0; k < perRow; k++ {
			m.Rows[v][rng.IntN(n)] = 1 + rng.Int64N(maxVal)
		}
	}
	return m
}

// mapMat converts an int64 matrix entrywise.
func mapMat[T any](m *ccmm.RowMat[int64], f func(int64) T) *ccmm.RowMat[T] {
	n := m.N()
	out := ccmm.NewRowMat[T](n)
	for v := 0; v < n; v++ {
		for j := 0; j < n; j++ {
			out.Rows[v][j] = f(m.Rows[v][j])
		}
	}
	return out
}

// diffSparse runs the forced sparse engine on both operand forms and both
// transports against the dense 3D reference: the RowMat product must be
// bit-identical to it and the CSR product to its compression, and all four
// runs must charge one ledger — rounds, words, flushes and every phase.
func diffSparse[T any](t *testing.T, name string, n int, sr ring.Semiring[T], codec ring.Codec[T], s, tm *ccmm.RowMat[T]) {
	t.Helper()
	refNet := clique.New(n)
	defer refNet.Close()
	want, err := ccmm.Semiring3D[T](refNet, nil, sr, codec, s, tm)
	if err != nil {
		t.Fatalf("%s n=%d: dense reference: %v", name, n, err)
	}
	zero := sr.Zero()
	keep := func(x T) bool { return !sr.Equal(x, zero) }
	wantCSR, sc, tc := csrOf(want, keep), csrOf(s, keep), csrOf(tm, keep)
	if _, ok := any(sr).(ring.Bool); ok {
		wantCSR.Val = nil // a Boolean CSR product is value-free: every stored entry is true
	}
	var first clique.Stats
	for i, tr := range []clique.Transport{clique.TransportDirect, clique.TransportWire} {
		net, csrNet := clique.New(n, clique.WithTransport(tr)), clique.New(n, clique.WithTransport(tr))
		got, err := ccmm.SparseMul[T](net, nil, sr, codec, s, tm)
		if err != nil {
			t.Fatalf("%s n=%d: RowMat on %v: %v", name, n, tr, err)
		}
		gotCSR, err := ccmm.SparseMulCSR[T](csrNet, nil, sr, codec, sc, tc)
		if err != nil {
			t.Fatalf("%s n=%d: CSR on %v: %v", name, n, tr, err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%s n=%d: RowMat product on %v differs from dense 3D", name, n, tr)
		}
		if !reflect.DeepEqual(gotCSR, wantCSR) {
			t.Fatalf("%s n=%d: CSR product on %v differs from compressed dense 3D", name, n, tr)
		}
		st, stCSR := net.Stats(), csrNet.Stats()
		net.Close()
		csrNet.Close()
		if i == 0 {
			first = st
		}
		if !reflect.DeepEqual(st, first) || !reflect.DeepEqual(stCSR, first) {
			t.Fatalf("%s n=%d: ledgers diverge on %v:\ndirect RowMat %+v\nRowMat        %+v\nCSR           %+v", name, n, tr, first, st, stCSR)
		}
	}
}

// TestSparseMatchesDenseAllAlgebras is the differential suite of the
// sparse engine: for every shipped algebra and a sample of clique sizes,
// the forced sparse product on either operand form must be bit-identical to
// the dense 3D engine on every transport, with one ledger for all of them.
func TestSparseMatchesDenseAllAlgebras(t *testing.T) {
	for _, n := range []int{8, 9, 13, 16, 27, 33, 64, 100} {
		rng := rand.New(rand.NewPCG(uint64(n), 99))
		base := sparseIntMat(rng, n, 2, 50)
		base2 := sparseIntMat(rng, n, 2, 50)

		diffSparse[int64](t, "int64", n, ring.Int64{}, ring.Int64{}, base, base2)

		zp := ring.NewZp(97)
		toZp := func(x int64) int64 { return zp.Norm(x) }
		diffSparse[int64](t, "zp", n, zp, zp, mapMat(base, toZp), mapMat(base2, toZp))

		mp := ring.MinPlus{}
		toMP := func(x int64) int64 {
			if x == 0 {
				return ring.Inf
			}
			return x
		}
		diffSparse[int64](t, "min-plus", n, mp, mp, mapMat(base, toMP), mapMat(base2, toMP))

		mpw := ring.MinPlusW{}
		row := 0
		toMPW := func(x int64) ring.ValW {
			if x == 0 {
				return ring.ValW{V: ring.Inf, W: ring.NoWitness}
			}
			return ring.ValW{V: x, W: int64(row % n)}
		}
		diffSparse[ring.ValW](t, "min-plus-w", n, mpw, mpw, mapMat(base, toMPW), mapMat(base2, toMPW))

		toBool := func(x int64) int64 { return ring.Bool{}.Add(x, 0) }
		diffSparse[int64](t, "bool", n, ring.Bool{}, ring.Int64{}, mapMat(base, toBool), mapMat(base2, toBool))
		diffSparse[int64](t, "packed-bool", n, ring.Bool{}, ring.PackedBit{}, mapMat(base, toBool), mapMat(base2, toBool))
	}
}

// TestSparseScratchReuse runs several distinct products on either operand
// form through one shared scratch and asserts each matches a fresh-scratch
// run — pooled state must never leak between products, nor between the
// forms that share it.
func TestSparseScratchReuse(t *testing.T) {
	const n = 33
	r := ring.Int64{}
	keep := func(x int64) bool { return x != 0 }
	sc := ccmm.NewScratch()
	for trial := 0; trial < 4; trial++ {
		rng := rand.New(rand.NewPCG(5, uint64(trial)))
		a := sparseIntMat(rng, n, 1+trial, 20)
		b := sparseIntMat(rng, n, 2, 20)
		run := func(sc *ccmm.Scratch) (*ccmm.RowMat[int64], *matrix.CSR[int64], clique.Stats) {
			net := clique.New(n)
			defer net.Close()
			p, err := ccmm.SparseMul[int64](net, sc, r, r, a, b)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			q, err := ccmm.SparseMulCSR[int64](net, sc, r, r, csrOf(a, keep), csrOf(b, keep))
			if err != nil {
				t.Fatalf("trial %d CSR: %v", trial, err)
			}
			return p, q, net.Stats()
		}
		got, gotCSR, shared := run(sc)
		want, wantCSR, fresh := run(nil)
		if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(gotCSR, wantCSR) {
			t.Fatalf("trial %d: shared-scratch products differ from fresh-scratch products", trial)
		}
		if !reflect.DeepEqual(shared, fresh) {
			t.Fatalf("trial %d: shared-scratch ledger %+v differs from fresh %+v", trial, shared, fresh)
		}
	}
}

// TestSparseDeterministic: same inputs, same products and ledgers.
func TestSparseDeterministic(t *testing.T) {
	const n = 27
	r := ring.Int64{}
	rng := rand.New(rand.NewPCG(11, 12))
	a := sparseIntMat(rng, n, 3, 9)
	b := sparseIntMat(rng, n, 3, 9)
	run := func() (*ccmm.RowMat[int64], clique.Stats) {
		net := clique.New(n)
		defer net.Close()
		p, err := ccmm.SparseMul[int64](net, nil, r, r, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return p, net.Stats()
	}
	p1, s1 := run()
	p2, s2 := run()
	if !reflect.DeepEqual(p1.Rows, p2.Rows) {
		t.Fatal("sparse product is not deterministic")
	}
	if !reflect.DeepEqual(s1, s2) {
		t.Fatalf("sparse ledger is not deterministic: %+v vs %+v", s1, s2)
	}
}

// withColRowCounts builds operands whose S column counts and T row counts
// hit the requested values exactly, for boundary tests of the
// Σ ca(y)·rb(y) < 2n² census.
func withColRowCounts(n int, cas, rbs []int) (s, tm *ccmm.RowMat[int64]) {
	s, tm = ccmm.NewRowMat[int64](n), ccmm.NewRowMat[int64](n)
	for y, ca := range cas {
		for x := 0; x < ca; x++ {
			s.Rows[x][y] = 1
		}
	}
	for y, rb := range rbs {
		for z := 0; z < rb; z++ {
			tm.Rows[y][z] = 1
		}
	}
	return s, tm
}

// TestSparseDensityBoundary pins the census threshold exactly, on both
// operand forms: Σ ca·rb = 2n²−1 is accepted, 2n² is rejected with
// ErrTooDense.
func TestSparseDensityBoundary(t *testing.T) {
	const n = 8 // 2n² = 128
	r := ring.Int64{}
	keep := func(x int64) bool { return x != 0 }
	mul := func(s, tm *ccmm.RowMat[int64]) (*ccmm.RowMat[int64], error) {
		net := clique.New(n)
		defer net.Close()
		p, err := ccmm.SparseMul[int64](net, nil, r, r, s, tm)
		q, errCSR := ccmm.SparseMulCSR[int64](net, nil, r, r, csrOf(s, keep), csrOf(tm, keep))
		if (err == nil) != (errCSR == nil) || err == nil && !reflect.DeepEqual(q, csrOf(p, keep)) {
			t.Fatalf("operand forms disagree: RowMat %v, CSR %v", err, errCSR)
		}
		return p, err
	}

	// 8·8 + 8·7 + 7·1 = 127 = 2n²−1: accepted, and correct.
	s, tm := withColRowCounts(n, []int{8, 8, 7}, []int{8, 7, 1})
	got, err := mul(s, tm)
	if err != nil {
		t.Fatalf("Σ = 2n²−1 rejected: %v", err)
	}
	ref := clique.New(n)
	defer ref.Close()
	want, err := ccmm.Semiring3D[int64](ref, nil, r, r, s, tm)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatal("boundary product differs from dense 3D")
	}

	// 8·8 + 8·7 + 8·1 = 128 = 2n²: rejected.
	s, tm = withColRowCounts(n, []int{8, 8, 8}, []int{8, 7, 1})
	if _, err := mul(s, tm); !errors.Is(err, ccmm.ErrTooDense) {
		t.Fatalf("Σ = 2n² err = %v, want ErrTooDense", err)
	}
}

// TestSparseTooSmall: the packing bound needs n ≥ 8.
func TestSparseTooSmall(t *testing.T) {
	r := ring.Int64{}
	net := clique.New(4)
	defer net.Close()
	a := ccmm.NewRowMat[int64](4)
	if _, err := ccmm.SparseMul[int64](net, nil, r, r, a, a); !errors.Is(err, ccmm.ErrSize) {
		t.Fatalf("n=4 err = %v, want ErrSize", err)
	}
}

// TestSparseForcedEngineViaPlan: a plan forcing EngineSparse routes ring,
// Boolean, and min-plus products through the sparse engine, and surfaces
// ErrTooDense unwrapped on dense operands.
func TestSparseForcedEngineViaPlan(t *testing.T) {
	const n = 16
	p := ccmm.PlanFor(n, ccmm.EngineSparse)
	rng := rand.New(rand.NewPCG(3, 4))
	a := sparseIntMat(rng, n, 2, 1) // 0/1 matrix
	b := sparseIntMat(rng, n, 2, 1)

	net := clique.New(n)
	defer net.Close()
	got, route, err := p.MulIntRouted(net, nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if route.Engine != ccmm.EngineSparse || route.Census {
		t.Fatalf("forced sparse route = %+v", route)
	}
	want, err := ccmm.Semiring3D[int64](clique.New(n), nil, ring.Int64{}, ring.Int64{}, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatal("forced sparse product differs from dense 3D")
	}

	if _, _, err := p.MulBoolRouted(clique.New(n), nil, a, b); err != nil {
		t.Fatalf("forced sparse bool: %v", err)
	}
	if _, _, err := p.MulMinPlusRouted(clique.New(n), nil, mapMat(a, func(x int64) int64 {
		if x == 0 {
			return ring.Inf
		}
		return x
	}), mapMat(b, func(x int64) int64 {
		if x == 0 {
			return ring.Inf
		}
		return x
	})); err != nil {
		t.Fatalf("forced sparse min-plus: %v", err)
	}

	dense := ccmm.NewRowMat[int64](n)
	for v := range dense.Rows {
		for j := range dense.Rows[v] {
			dense.Rows[v][j] = 1
		}
	}
	if _, _, err := p.MulIntRouted(clique.New(n), nil, dense, dense); !errors.Is(err, ccmm.ErrTooDense) {
		t.Fatalf("forced sparse on dense operands err = %v, want ErrTooDense", err)
	}
}

// TestSparseAutoRouting: under EngineAuto the census routes sparse inputs
// through the sparse engine with strictly fewer rounds than the dense
// plan, routes dense inputs to the dense engine, and falls back
// transparently when the prediction is wrong.
func TestSparseAutoRouting(t *testing.T) {
	const n = 100
	p := ccmm.PlanFor(n, ccmm.EngineAuto)
	rng := rand.New(rand.NewPCG(21, 22))
	a := sparseIntMat(rng, n, 4, 50)
	b := sparseIntMat(rng, n, 4, 50)

	net := clique.New(n)
	defer net.Close()
	got, route, err := p.MulIntRouted(net, nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if route.Engine != ccmm.EngineSparse || !route.Census || route.Fallback {
		t.Fatalf("sparse input route = %+v, want sparse via census", route)
	}
	if route.RhoA == 0 || route.RhoB == 0 {
		t.Fatalf("census counts missing: %+v", route)
	}

	// The dense plan for comparison: same product, census disabled.
	dnet := clique.New(n)
	defer dnet.Close()
	dnet.SetSparseThreshold(0)
	want, droute, err := p.MulIntRouted(dnet, nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if droute.Census || droute.Engine != ccmm.EngineFast {
		t.Fatalf("threshold-0 route = %+v, want static dense", droute)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatal("sparse-routed product differs from dense plan")
	}
	if net.Rounds() >= dnet.Rounds() {
		t.Fatalf("sparse route used %d rounds, dense plan %d — sparse must win on sparse inputs",
			net.Rounds(), dnet.Rounds())
	}

	// A dense input routes dense (with only the census round added).
	dense := ccmm.NewRowMat[int64](n)
	for v := range dense.Rows {
		for j := range dense.Rows[v] {
			dense.Rows[v][j] = 1 + int64((v+j)%7)
		}
	}
	net2 := clique.New(n)
	defer net2.Close()
	_, route2, err := p.MulIntRouted(net2, nil, dense, dense)
	if err != nil {
		t.Fatal(err)
	}
	if route2.Engine != ccmm.EngineFast || !route2.Census || route2.Fallback {
		t.Fatalf("dense input route = %+v, want dense via census", route2)
	}

	// Skewed operands: sparse by row counts, too dense by column weights.
	// The planner predicts sparse, the engine's exact census rejects, and
	// the product still completes on the dense engine.
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
	got3, route3, err := p.MulIntRouted(net3, nil, skewS, skewT)
	if err != nil {
		t.Fatal(err)
	}
	if !route3.Fallback || route3.Engine != ccmm.EngineFast {
		t.Fatalf("skewed input route = %+v, want dense-fallback", route3)
	}
	want3, err := ccmm.Semiring3D[int64](clique.New(n), nil, ring.Int64{}, ring.Int64{}, skewS, skewT)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got3.Rows, want3.Rows) {
		t.Fatal("fallback product differs from dense 3D")
	}
}

// TestSparseZeroOperand: an all-zero operand routes sparse trivially and
// produces the all-zero product.
func TestSparseZeroOperand(t *testing.T) {
	const n = 16
	r := ring.Int64{}
	zero := ccmm.NewRowMat[int64](n)
	rng := rand.New(rand.NewPCG(9, 9))
	b := sparseIntMat(rng, n, 3, 5)
	net := clique.New(n)
	defer net.Close()
	got, err := ccmm.SparseMul[int64](net, nil, r, r, zero, b)
	if err != nil {
		t.Fatal(err)
	}
	for v := range got.Rows {
		for j := range got.Rows[v] {
			if got.Rows[v][j] != 0 {
				t.Fatalf("zero-operand product has nonzero at (%d,%d)", v, j)
			}
		}
	}
}

// TestAllocateTilesWeighted: the generalised allocator packs disjoint
// in-bounds tiles for weighted workloads under the Σ w < 2n² bound.
func TestAllocateTilesWeighted(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 32))
	for trial := 0; trial < 30; trial++ {
		n := 8 + rng.IntN(120)
		fs := make([]int, n)
		var total int64
		for y := range fs {
			ca, rb := rng.IntN(n), rng.IntN(n)
			w := int64(ca) * int64(rb)
			if total+w >= int64(2*n*n) {
				break
			}
			total += w
			fs[y] = ccmm.TileSideFor(w)
		}
		tiles, err := ccmm.AllocateTiles(fs, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		k := ccmm.Pow2Floor(n)
		occupied := map[[2]int]bool{}
		for _, tile := range tiles {
			if fs[tile.Y] == 0 {
				if tile.Allocated {
					t.Fatal("weightless node received a tile")
				}
				continue
			}
			if !tile.Allocated || tile.F != fs[tile.Y] {
				t.Fatalf("tile %+v does not match requested side %d", tile, fs[tile.Y])
			}
			if tile.Row < 0 || tile.Col < 0 || tile.Row+tile.F > k || tile.Col+tile.F > k {
				t.Fatalf("tile %+v outside [0,%d)²", tile, k)
			}
			for i := 0; i < tile.F; i++ {
				for j := 0; j < tile.F; j++ {
					cell := [2]int{tile.Row + i, tile.Col + j}
					if occupied[cell] {
						t.Fatalf("tiles overlap at %v", cell)
					}
					occupied[cell] = true
				}
			}
		}
	}
}
