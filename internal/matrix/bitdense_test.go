package matrix

import (
	"math/rand/v2"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ring"
)

// TestBitDenseRoundTrip checks Set/Get, SetRowBits/UnpackRow, and
// PackDense/UnpackDense against each other across widths that straddle
// word boundaries.
func TestBitDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 1))
	for _, cols := range []int{1, 7, 63, 64, 65, 128, 130} {
		rows := 9
		src := randBoolDense(rng, rows, cols, 0.4)
		m := NewBitDense(rows, cols)
		for i := 0; i < rows; i++ {
			m.SetRowBits(i, src.Row(i))
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if m.Get(i, j) != src.At(i, j) {
					t.Fatalf("cols=%d: Get(%d,%d) = %v after SetRowBits", cols, i, j, m.Get(i, j))
				}
			}
		}
		out := make([]bool, cols)
		m.UnpackRow(rows/2, out)
		for j, v := range out {
			if v != src.At(rows/2, j) {
				t.Fatalf("cols=%d: UnpackRow[%d] = %v", cols, j, v)
			}
		}
		var packed BitDense
		PackDense(&packed, src)
		back := New[bool](rows, cols)
		UnpackDense(back, &packed)
		if !Equal[bool](ring.Bool{}, src, back) {
			t.Fatalf("cols=%d: PackDense/UnpackDense round trip differs", cols)
		}
		// Point mutation through Set.
		m.Set(0, cols-1, !m.Get(0, cols-1))
		if m.Get(0, cols-1) == src.At(0, cols-1) {
			t.Fatalf("cols=%d: Set did not flip the entry", cols)
		}
	}
}

// TestBitDenseTransportLayout pins the shared bit layout: a row packed with
// SetRowBits must be word-for-word identical to the ring.PackedBool
// encoding of the same values.
func TestBitDenseTransportLayout(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 2))
	for _, cols := range []int{1, 64, 65, 200} {
		vals := make([]bool, cols)
		for j := range vals {
			vals[j] = rng.IntN(2) == 1
		}
		enc := ring.PackedBool{}.EncodeSlice(nil, vals)
		m := NewBitDense(2, cols)
		m.SetRowBits(0, vals)
		row := m.RowWords(0)
		if len(enc) != len(row) {
			t.Fatalf("cols=%d: EncodeSlice %d words, stride %d", cols, len(enc), len(row))
		}
		for w := range row {
			if uint64(enc[w]) != row[w] {
				t.Fatalf("cols=%d word %d: transport %#x, BitDense %#x", cols, w, enc[w], row[w])
			}
		}
	}
}

// TestBitDenseNonzeroRows checks the cached occupancy bitset and its
// invalidation on every mutator.
func TestBitDenseNonzeroRows(t *testing.T) {
	rows, cols := 130, 67
	m := NewBitDense(rows, cols)
	m.Set(0, 3, true)
	m.Set(64, 66, true)
	m.Set(129, 0, true)
	any := m.NonzeroRows()
	for i := 0; i < rows; i++ {
		want := i == 0 || i == 64 || i == 129
		if got := any[i>>6]&(1<<(uint(i)&63)) != 0; got != want {
			t.Fatalf("NonzeroRows bit %d = %v, want %v", i, got, want)
		}
	}
	// Mutation invalidates the cache.
	m.Set(64, 66, false)
	any = m.NonzeroRows()
	if any[1]&1 != 0 {
		t.Fatal("NonzeroRows stale after Set(false)")
	}
	// Writing through RowWords needs an explicit Invalidate.
	m.RowWords(64)[0] = 1
	m.Invalidate()
	if any = m.NonzeroRows(); any[1]&1 == 0 {
		t.Fatal("NonzeroRows stale after RowWords write + Invalidate")
	}
}

// TestMulBitIntoMatchesScalar drives the packed kernel against the scalar
// reference across shapes and densities, including non-square products.
func TestMulBitIntoMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 3))
	shapes := [][3]int{{1, 1, 1}, {5, 9, 3}, {64, 64, 64}, {65, 63, 66}, {130, 70, 129}}
	for _, p := range []float64{0, 0.05, 0.5, 1} {
		for _, sh := range shapes {
			r, k, c := sh[0], sh[1], sh[2]
			a := randBoolDense(rng, r, k, p)
			b := randBoolDense(rng, k, c, p)
			want := New[bool](r, c)
			MulBoolScalarInto(want, a, b)
			pa, pb, pout := NewBitDense(r, k), NewBitDense(k, c), NewBitDense(r, c)
			PackDense(pa, a)
			PackDense(pb, b)
			MulBitInto(pout, pa, pb)
			got := New[bool](r, c)
			UnpackDense(got, pout)
			if !Equal[bool](ring.Bool{}, want, got) {
				t.Fatalf("p=%v %dx%dx%d: packed product differs from scalar", p, r, k, c)
			}
		}
	}
}

// TestBitDensePoolReuse checks that a pooled BitDense reshapes cleanly:
// a stale larger buffer must not leak bits into a smaller product.
func TestBitDensePoolReuse(t *testing.T) {
	m := GetBitDense(100, 100)
	for i := range m.w {
		m.w[i] = ^uint64(0) // simulate stale pool contents
	}
	PutBitDense(m)
	m = GetBitDense(3, 3)
	m.SetRowBits(0, []bool{true, false, false})
	m.SetRowBits(1, []bool{false, true, false})
	m.SetRowBits(2, []bool{false, false, true})
	out := GetBitDense(3, 3)
	MulBitInto(out, m, m)
	if got := out.Count(); got != 3 {
		t.Fatalf("identity squared has %d bits, want 3", got)
	}
	PutBitDense(m)
	PutBitDense(out)
}
