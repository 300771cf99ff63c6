package matrix_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

func randInt64Mat(rng *rand.Rand, rows, cols int, lim int64) *matrix.Dense[int64] {
	m := matrix.New[int64](rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, rng.Int64N(2*lim+1)-lim)
		}
	}
	return m
}

func randBoolMat(rng *rand.Rand, rows, cols int) *matrix.Dense[int64] {
	m := matrix.New[int64](rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, int64(1-rng.IntN(2)))
		}
	}
	return m
}

func randMinPlusMat(rng *rand.Rand, rows, cols int) *matrix.Dense[int64] {
	m := matrix.New[int64](rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			if rng.IntN(4) == 0 {
				m.Set(i, j, ring.Inf)
			} else {
				m.Set(i, j, rng.Int64N(100))
			}
		}
	}
	return m
}

// genericMul is a deliberately simple reference product (i-j-k order, no
// fast paths) that the optimised kernels are compared against.
func genericMul[T any](r ring.Semiring[T], a, b *matrix.Dense[T]) *matrix.Dense[T] {
	out := matrix.Zeros[T](r, a.Rows(), b.Cols())
	for i := 0; i < a.Rows(); i++ {
		for j := 0; j < b.Cols(); j++ {
			acc := r.Zero()
			for k := 0; k < a.Cols(); k++ {
				acc = r.Add(acc, r.Mul(a.At(i, k), b.At(k, j)))
			}
			out.Set(i, j, acc)
		}
	}
	return out
}

func TestMulMatchesReferenceInt64(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	r := ring.Int64{}
	for trial := 0; trial < 20; trial++ {
		n, k, m := 1+rng.IntN(12), 1+rng.IntN(12), 1+rng.IntN(12)
		a, b := randInt64Mat(rng, n, k, 50), randInt64Mat(rng, k, m, 50)
		if !matrix.Equal[int64](r, matrix.Mul[int64](r, a, b), genericMul[int64](r, a, b)) {
			t.Fatalf("int64 fast path disagrees with reference (n=%d k=%d m=%d)", n, k, m)
		}
	}
}

func TestMulMatchesReferenceBool(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 1))
	r := ring.Bool{}
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.IntN(10)
		a, b := randBoolMat(rng, n, n), randBoolMat(rng, n, n)
		if !matrix.Equal[int64](ring.Int64{}, matrix.Mul[int64](r, a, b), genericMul[int64](r, a, b)) {
			t.Fatal("bool fast path disagrees with reference")
		}
	}
}

func TestMulMatchesReferenceMinPlus(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 1))
	r := ring.MinPlus{}
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.IntN(10)
		a, b := randMinPlusMat(rng, n, n), randMinPlusMat(rng, n, n)
		if !matrix.Equal[int64](r, matrix.Mul[int64](r, a, b), genericMul[int64](r, a, b)) {
			t.Fatal("min-plus fast path disagrees with reference")
		}
	}
}

func TestMulGenericPathZp(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 1))
	z := ring.NewZp(97)
	for trial := 0; trial < 10; trial++ {
		n := 1 + rng.IntN(10)
		a, b := matrix.New[int64](n, n), matrix.New[int64](n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.Int64N(97))
				b.Set(i, j, rng.Int64N(97))
			}
		}
		if !matrix.Equal[int64](z, matrix.Mul[int64](z, a, b), genericMul[int64](z, a, b)) {
			t.Fatal("generic Mul path disagrees with reference over Zp")
		}
	}
}

func TestStrassenMatchesSchoolbook(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 1))
	r := ring.Int64{}
	for _, n := range []int{1, 2, 3, 7, 8, 16, 33, 64, 100} {
		a, b := randInt64Mat(rng, n, n, 20), randInt64Mat(rng, n, n, 20)
		got := matrix.Strassen[int64](r, a, b, 8)
		want := matrix.Mul[int64](r, a, b)
		if !matrix.Equal[int64](r, got, want) {
			t.Fatalf("Strassen disagrees with school-book at n=%d", n)
		}
	}
}

func TestStrassenOverZp(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 1))
	z := ring.NewZp(101)
	n := 40
	a, b := matrix.New[int64](n, n), matrix.New[int64](n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.Int64N(101))
			b.Set(i, j, rng.Int64N(101))
		}
	}
	got := matrix.Strassen[int64](z, a, b, 4)
	want := matrix.Mul[int64](z, a, b)
	if !matrix.Equal[int64](z, got, want) {
		t.Fatal("Strassen over Zp disagrees with school-book")
	}
}

func TestStrassenQuick(t *testing.T) {
	r := ring.Int64{}
	cfg := &quick.Config{MaxCount: 25}
	f := func(seed uint64, sz uint8) bool {
		n := 1 + int(sz%40)
		rng := rand.New(rand.NewPCG(seed, 99))
		a, b := randInt64Mat(rng, n, n, 10), randInt64Mat(rng, n, n, 10)
		return matrix.Equal[int64](r, matrix.Strassen[int64](r, a, b, 4), matrix.Mul[int64](r, a, b))
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestPow(t *testing.T) {
	r := ring.Int64{}
	rng := rand.New(rand.NewPCG(7, 1))
	m := randInt64Mat(rng, 5, 5, 3)
	want := m.Clone()
	for k := 1; k <= 6; k++ {
		got := matrix.Pow[int64](r, m, k)
		if !matrix.Equal[int64](r, got, want) {
			t.Fatalf("Pow(m, %d) disagrees with iterated product", k)
		}
		want = matrix.Mul[int64](r, want, m)
	}
}

func TestPowMinPlusIsShortestPath(t *testing.T) {
	// Classic sanity check: over min-plus, powering a weight matrix computes
	// shortest-path distances on a small path graph 0-1-2-3.
	mp := ring.MinPlus{}
	n := 4
	w := matrix.NewFilled[int64](n, n, ring.Inf)
	for i := 0; i < n; i++ {
		w.Set(i, i, 0)
	}
	w.Set(0, 1, 2)
	w.Set(1, 0, 2)
	w.Set(1, 2, 3)
	w.Set(2, 1, 3)
	w.Set(2, 3, 4)
	w.Set(3, 2, 4)
	d := matrix.Pow[int64](mp, w, n)
	if d.At(0, 3) != 9 || d.At(3, 0) != 9 || d.At(0, 2) != 5 {
		t.Fatalf("min-plus power distances wrong: d(0,3)=%d d(0,2)=%d", d.At(0, 3), d.At(0, 2))
	}
}

func TestTraceTransposeIdentity(t *testing.T) {
	r := ring.Int64{}
	rng := rand.New(rand.NewPCG(8, 1))
	m := randInt64Mat(rng, 6, 6, 10)
	if got := matrix.Trace[int64](r, matrix.Transpose[int64](m)); got != matrix.Trace[int64](r, m) {
		t.Error("trace not invariant under transpose")
	}
	tt := matrix.Transpose[int64](matrix.Transpose[int64](m))
	if !matrix.Equal[int64](r, tt, m) {
		t.Error("double transpose is not identity")
	}
}

func TestSubSetSubRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 1))
	m := randInt64Mat(rng, 8, 8, 100)
	sub := m.Sub(2, 6, 1, 4)
	back := matrix.New[int64](8, 8)
	back.SetSub(2, 1, sub)
	for i := 2; i < 6; i++ {
		for j := 1; j < 4; j++ {
			if back.At(i, j) != m.At(i, j) {
				t.Fatal("SetSub did not invert Sub")
			}
		}
	}
}

func TestDistanceProductWitness(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 1))
	mp := ring.MinPlus{}
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.IntN(8)
		a, b := randMinPlusMat(rng, n, n), randMinPlusMat(rng, n, n)
		prod, wit := matrix.DistanceProductWitness(a, b)
		want := matrix.Mul[int64](mp, a, b)
		if !matrix.Equal[int64](mp, prod, want) {
			t.Fatal("witness product value disagrees with min-plus Mul")
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				w := wit.At(i, j)
				if ring.IsInf(prod.At(i, j)) {
					if w != ring.NoWitness {
						t.Fatalf("infinite entry (%d,%d) has witness %d", i, j, w)
					}
					continue
				}
				if w < 0 || w >= int64(n) {
					t.Fatalf("witness out of range at (%d,%d): %d", i, j, w)
				}
				if a.At(i, int(w))+b.At(int(w), j) != prod.At(i, j) {
					t.Fatalf("witness does not certify entry (%d,%d)", i, j)
				}
			}
		}
	}
}

func TestRowSetRowAlias(t *testing.T) {
	m := matrix.New[int64](2, 3)
	m.SetRow(1, []int64{7, 8, 9})
	row := m.Row(1)
	row[0] = 42 // Row is documented as a live view.
	if m.At(1, 0) != 42 {
		t.Error("Row should alias backing store")
	}
	if m.At(1, 2) != 9 {
		t.Error("SetRow did not copy values")
	}
}

func TestFromRowsAndClone(t *testing.T) {
	src := [][]int64{{1, 2}, {3, 4}, {5, 6}}
	m := matrix.FromRows(src)
	src[0][0] = 99 // FromRows must copy.
	if m.At(0, 0) != 1 {
		t.Error("FromRows did not copy input")
	}
	c := m.Clone()
	c.Set(2, 1, -1)
	if m.At(2, 1) != 6 {
		t.Error("Clone shares storage with original")
	}
}

func TestPanicsOnMisuse(t *testing.T) {
	r := ring.Int64{}
	cases := []struct {
		name string
		f    func()
	}{
		{"mul shape", func() { matrix.Mul[int64](r, matrix.New[int64](2, 3), matrix.New[int64](2, 3)) }},
		{"add shape", func() { matrix.Add[int64](r, matrix.New[int64](2, 3), matrix.New[int64](3, 2)) }},
		{"trace nonsquare", func() { matrix.Trace[int64](r, matrix.New[int64](2, 3)) }},
		{"at range", func() { matrix.New[int64](2, 2).At(2, 0) }},
		{"sub range", func() { matrix.New[int64](2, 2).Sub(0, 3, 0, 1) }},
		{"ragged rows", func() { matrix.FromRows([][]int64{{1}, {1, 2}}) }},
		{"strassen nonsquare", func() { matrix.Strassen[int64](r, matrix.New[int64](2, 3), matrix.New[int64](3, 2), 0) }},
		{"pow zero", func() { matrix.Pow[int64](r, matrix.New[int64](2, 2), 0) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.f()
		})
	}
}
