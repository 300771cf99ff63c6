package matrix

import (
	"math/rand/v2"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ring"
)

// TestBitDenseRoundTrip checks PackDense/UnpackDense against each other
// across widths that straddle word boundaries: every non-zero entry —
// values other than 1 among them — packs as true and unpacks as 1.
func TestBitDenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 1))
	for _, cols := range []int{1, 7, 63, 64, 65, 128, 130} {
		rows := 9
		src := randBoolDense(rng, rows, cols, 0.4)
		for i := range src.e {
			if src.e[i] != 0 && rng.IntN(3) == 0 {
				src.e[i] = []int64{-1, 2, 1 << 40}[rng.IntN(3)]
			}
		}
		var packed BitDense
		PackDense(&packed, src)
		back := New[int64](rows, cols)
		UnpackDense(back, &packed)
		for i := range src.e {
			if want := (ring.Bool{}).Add(src.e[i], 0); back.e[i] != want {
				t.Fatalf("cols=%d: entry %d (%d) round-tripped as %d, want %d", cols, i, src.e[i], back.e[i], want)
			}
		}
		// Point mutation through Set.
		bit := func() bool { return packed.RowWords(0)[(cols-1)>>6]>>(uint(cols-1)&63)&1 == 1 }
		was := bit()
		packed.Set(0, cols-1, !was)
		if bit() == was {
			t.Fatalf("cols=%d: Set did not flip the entry", cols)
		}
	}
}

// TestBitDenseTransportLayout pins the shared bit layout: a row packed with
// PackDense has entry j in bit j%64 of word j/64, word for word the
// ring.PackedBool encoding of the same truth values.
func TestBitDenseTransportLayout(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 2))
	for _, cols := range []int{1, 64, 65, 200} {
		src := randBoolDense(rng, 2, cols, 0.5)
		vals := make([]bool, cols)
		for j := range vals {
			vals[j] = src.At(0, j) != 0
		}
		enc := ring.PackedBool{}.EncodeSlice(nil, vals)
		var m BitDense
		PackDense(&m, src)
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
			want := New[int64](r, c)
			MulBoolScalarInto(want, a, b)
			pa, pb, pout := NewBitDense(r, k), NewBitDense(k, c), NewBitDense(r, c)
			PackDense(pa, a)
			PackDense(pb, b)
			MulBitInto(pout, pa, pb)
			got := New[int64](r, c)
			UnpackDense(got, pout)
			if !Equal[int64](ring.Int64{}, want, got) {
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
	id := FromRows([][]int64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
	PackDense(m, id)
	out := GetBitDense(3, 3)
	MulBitInto(out, m, m)
	got := New[int64](3, 3)
	UnpackDense(got, out)
	if !Equal[int64](ring.Int64{}, got, id) {
		t.Fatalf("identity squared is %v, want the identity", got.e)
	}
	PutBitDense(m)
	PutBitDense(out)
}
