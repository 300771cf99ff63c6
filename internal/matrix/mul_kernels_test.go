package matrix

import (
	"math/rand/v2"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ring"
)

// genericOnly hides the concrete algebra type so MulInto's switch misses
// and the generic interface-dispatch path runs — the reference the
// specialised kernels are tested against.
type genericOnly[T any] struct {
	ring.Semiring[T]
}

// randBoolDense returns a rows×cols 0/1 matrix whose entries are 1 with
// probability p — the form Boolean products carry.
func randBoolDense(rng *rand.Rand, rows, cols int, p float64) *Dense[int64] {
	m := New[int64](rows, cols)
	for i := range m.e {
		if rng.Float64() < p {
			m.e[i] = 1
		}
	}
	return m
}

func randMinPlusWDense(rng *rand.Rand, rows, cols int) *Dense[ring.ValW] {
	m := New[ring.ValW](rows, cols)
	for i := range m.e {
		switch rng.IntN(5) {
		case 0:
			m.e[i] = ring.ValW{V: ring.Inf, W: ring.NoWitness}
		case 1:
			// Untagged finite entries exercise the left-witness fallback.
			m.e[i] = ring.ValW{V: rng.Int64N(40), W: ring.NoWitness}
		default:
			// Small value range forces ties, exercising Less's tie-break.
			m.e[i] = ring.ValW{V: rng.Int64N(8), W: rng.Int64N(6)}
		}
	}
	return m
}

// TestMulBoolMatchesGeneric pins the early-exit Boolean kernel (skip
// all-false b-rows, stop on saturated output rows) against the generic
// path on random matrices across densities, including the all-false and
// near-all-true extremes the short-circuits target.
func TestMulBoolMatchesGeneric(t *testing.T) {
	br := ring.Bool{}
	rng := rand.New(rand.NewPCG(21, 1))
	for _, p := range []float64{0, 0.02, 0.3, 0.9, 1} {
		for _, n := range []int{1, 7, 16, 33} {
			a := randBoolDense(rng, n, n, p)
			b := randBoolDense(rng, n, n, p)
			got := Mul[int64](br, a, b)
			want := Mul[int64](genericOnly[int64]{br}, a, b)
			if !Equal[int64](ring.Int64{}, got, want) {
				t.Fatalf("p=%v n=%d: boolean kernel differs from generic path", p, n)
			}
		}
	}
}

// TestMulMinPlusWMatchesGeneric pins the witness-carrying min-plus kernel
// — value, witness propagation, and tie-breaking — against the generic
// path on random matrices dense with ties and untagged entries.
func TestMulMinPlusWMatchesGeneric(t *testing.T) {
	mw := ring.MinPlusW{}
	rng := rand.New(rand.NewPCG(22, 2))
	for _, n := range []int{1, 5, 16, 40} {
		a := randMinPlusWDense(rng, n, n)
		b := randMinPlusWDense(rng, n, n)
		got := Mul[ring.ValW](mw, a, b)
		want := Mul[ring.ValW](genericOnly[ring.ValW]{mw}, a, b)
		for i := range got.e {
			if got.e[i] != want.e[i] {
				t.Fatalf("n=%d entry %d: kernel %v, generic %v", n, i, got.e[i], want.e[i])
			}
		}
	}
}

// TestMulIntoOverwritesStaleDestination checks the pooled-buffer contract:
// MulInto must produce the same result into a garbage-filled destination.
func TestMulIntoOverwritesStaleDestination(t *testing.T) {
	r := ring.Int64{}
	rng := rand.New(rand.NewPCG(23, 3))
	n := 19
	a, b := New[int64](n, n), New[int64](n, n)
	for i := range a.e {
		a.e[i] = rng.Int64N(100) - 50
		b.e[i] = rng.Int64N(100) - 50
	}
	want := Mul[int64](r, a, b)
	dst := NewFilled[int64](n, n, -987654321)
	MulInto[int64](r, dst, a, b)
	if !Equal[int64](r, dst, want) {
		t.Fatal("MulInto into a stale destination differs from Mul")
	}
	mp := ring.MinPlus{}
	wantMP := Mul[int64](mp, a, b)
	MulInto[int64](mp, dst, a, b)
	if !Equal[int64](mp, dst, wantMP) {
		t.Fatal("min-plus MulInto into a stale destination differs from Mul")
	}
}

// TestMulTilingBitIdentical runs the tiled kernels past the tile boundary
// (cols > mulTileJ) and checks against the generic path: tiling must not
// change any entry.
func TestMulTilingBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("wide-matrix product")
	}
	rng := rand.New(rand.NewPCG(24, 4))
	rows, cols := 9, mulTileJ+37
	ai := New[int64](rows, rows)
	bi := New[int64](rows, cols)
	for i := range ai.e {
		ai.e[i] = rng.Int64N(1000) - 500
	}
	for i := range bi.e {
		bi.e[i] = rng.Int64N(1000) - 500
	}
	r := ring.Int64{}
	if !Equal[int64](r, Mul[int64](r, ai, bi), Mul[int64](genericOnly[int64]{r}, ai, bi)) {
		t.Fatal("tiled int64 kernel differs from generic path")
	}
	mp := ring.MinPlus{}
	for i := range ai.e {
		if rng.IntN(4) == 0 {
			ai.e[i] = ring.Inf
		} else {
			ai.e[i] = rng.Int64N(50)
		}
	}
	for i := range bi.e {
		if rng.IntN(4) == 0 {
			bi.e[i] = ring.Inf
		} else {
			bi.e[i] = rng.Int64N(50)
		}
	}
	if !Equal[int64](mp, Mul[int64](mp, ai, bi), Mul[int64](genericOnly[int64]{mp}, ai, bi)) {
		t.Fatal("tiled min-plus kernel differs from generic path")
	}
}

// genericMulMinPlus is the unspecialised reference product over the
// min-plus semiring (MulInto would dispatch to the kernel under test).
func genericMulMinPlus(a, b *Dense[int64]) *Dense[int64] {
	mp := ring.MinPlus{}
	out := New[int64](a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			acc := mp.Zero()
			for k := 0; k < a.Cols(); k++ {
				acc = mp.Add(acc, mp.Mul(a.At(i, k), b.At(k, j)))
			}
			out.Set(i, j, acc)
		}
	}
	return out
}

// TestMulMinPlusMatchesGeneric drives the min-plus kernel against the
// generic semiring path on random matrices mixing negative weights and
// infinite entries — the combination where a clamp-only inner loop would
// fabricate finite distances (negative aik + Inf reads below Inf).
func TestMulMinPlusMatchesGeneric(t *testing.T) {
	mp := ring.MinPlus{}
	rng := rand.New(rand.NewPCG(23, 3))
	randDense := func(n int) *Dense[int64] {
		m := New[int64](n, n)
		for i := range m.e {
			switch rng.IntN(4) {
			case 0:
				m.e[i] = ring.Inf
			case 1:
				m.e[i] = -rng.Int64N(50)
			default:
				m.e[i] = rng.Int64N(100)
			}
		}
		return m
	}
	for _, n := range []int{1, 2, 5, 17, 40} {
		a, b := randDense(n), randDense(n)
		got := New[int64](n, n)
		MulInto(mp, got, a, b)
		want := genericMulMinPlus(a, b)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if got.At(i, j) != want.At(i, j) {
					t.Fatalf("n=%d: kernel[%d][%d] = %d, generic %d", n, i, j, got.At(i, j), want.At(i, j))
				}
			}
		}
	}
	// The reported failure case, verbatim: a negative weight against an
	// unreachable entry must stay unreachable.
	a := New[int64](2, 2)
	b := New[int64](2, 2)
	a.Fill(ring.Inf)
	b.Fill(ring.Inf)
	a.Set(0, 0, -5)
	out := New[int64](2, 2)
	MulInto(mp, out, a, b)
	if !ring.IsInf(out.At(0, 1)) {
		t.Fatalf("negative weight × Inf produced finite distance %d", out.At(0, 1))
	}
}

// diffSizes is the size sweep of the kernel differential tests: a sample
// of 1..100 catching word-boundary and unroll-remainder shapes, plus
// 511/512/513 straddling the mulTileJ tile boundary (trimmed to the small
// sample under -short).
func diffSizes() []int {
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33, 63, 64, 65, 97, 100}
	if !testing.Short() {
		sizes = append(sizes, 511, 512, 513)
	}
	return sizes
}

// TestMulBoolPackedMatchesScalarSweep drives MulBoolInto (the packed
// word-parallel kernel behind MulInto) against the scalar reference across
// the full size sweep and several densities.
func TestMulBoolPackedMatchesScalarSweep(t *testing.T) {
	rng := rand.New(rand.NewPCG(25, 5))
	for _, n := range diffSizes() {
		p := 0.3
		if n > 100 {
			p = 0.02 // keep the scalar reference fast at the big sizes
		}
		a := randBoolDense(rng, n, n, p)
		b := randBoolDense(rng, n, n, p)
		got := New[int64](n, n)
		MulBoolInto(got, a, b)
		want := New[int64](n, n)
		MulBoolScalarInto(want, a, b)
		if !Equal[int64](ring.Int64{}, got, want) {
			t.Fatalf("n=%d p=%v: packed Boolean kernel differs from scalar", n, p)
		}
	}
}

// TestMulMinPlusUnrolledMatchesRefSweep drives the branch-free unrolled
// min-plus kernel against the original scalar kernel across the full size
// sweep, mixing negative weights and infinite entries — the combination
// where the clamp-vs-skip distinction matters.
func TestMulMinPlusUnrolledMatchesRefSweep(t *testing.T) {
	rng := rand.New(rand.NewPCG(26, 6))
	fill := func(n int) *Dense[int64] {
		m := New[int64](n, n)
		for i := range m.e {
			switch rng.IntN(5) {
			case 0:
				m.e[i] = ring.Inf
			case 1:
				m.e[i] = -rng.Int64N(50)
			default:
				m.e[i] = rng.Int64N(100)
			}
		}
		return m
	}
	for _, n := range diffSizes() {
		a, b := fill(n), fill(n)
		got := New[int64](n, n)
		MulMinPlusInto(got, a, b)
		want := New[int64](n, n)
		MulMinPlusRefInto(want, a, b)
		for i := range got.e {
			if got.e[i] != want.e[i] {
				t.Fatalf("n=%d entry %d: unrolled %d, reference %d", n, i, got.e[i], want.e[i])
			}
		}
	}
}

// TestMulMinPlusWInlinedMatchesRefSweep drives the witness-carrying kernel
// against the original across the full size sweep, with ties and untagged
// entries dense enough to exercise every tie-break branch.
func TestMulMinPlusWInlinedMatchesRefSweep(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 7))
	for _, n := range diffSizes() {
		a := randMinPlusWDense(rng, n, n)
		b := randMinPlusWDense(rng, n, n)
		got := New[ring.ValW](n, n)
		MulMinPlusWInto(got, a, b)
		want := New[ring.ValW](n, n)
		MulMinPlusWRefInto(want, a, b)
		for i := range got.e {
			if got.e[i] != want.e[i] {
				t.Fatalf("n=%d entry %d: kernel %v, reference %v", n, i, got.e[i], want.e[i])
			}
		}
	}
}

// TestAddRowIntoMatchesGeneric pins AddRowInto's int64 loops against the
// generic r.Add path: min-plus values at, above and around Inf, negative
// and wrapping integers, and Boolean entries other than 0/1 (a corrupted
// delivery), over a dst shorter than src as the 3D assembly passes it.
func TestAddRowIntoMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	vals := []int64{0, 1, 2, -1, 7, ring.Inf - 1, ring.Inf, ring.Inf + 5, 1 << 62, -(1 << 62), 1<<63 - 1}
	draw := func(k int) []int64 {
		out := make([]int64, k)
		for i := range out {
			out[i] = vals[rng.IntN(len(vals))]
		}
		return out
	}
	for _, r := range []ring.Semiring[int64]{ring.MinPlus{}, ring.Int64{}, ring.Bool{}} {
		for _, k := range []int{0, 1, 5, 33} {
			dst, src := draw(k), draw(k+3)
			want := append([]int64(nil), dst...)
			AddRowInto[int64](genericOnly[int64]{r}, want, src)
			AddRowInto(r, dst, src)
			for i := range dst {
				if dst[i] != want[i] {
					t.Fatalf("%T k=%d: entry %d is %d, generic %d", r, k, i, dst[i], want[i])
				}
			}
		}
	}
}
