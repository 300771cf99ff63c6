package ring_test

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/algebraic-clique/algclique/internal/ring"
)

// semiringLaws exercises the semiring axioms on randomly generated elements.
func semiringLaws[T any](t *testing.T, r ring.Semiring[T], gen func(*rand.Rand) T) {
	t.Helper()
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 200; i++ {
		a, b, c := gen(rng), gen(rng), gen(rng)
		if !r.Equal(r.Add(a, b), r.Add(b, a)) {
			t.Fatalf("Add not commutative: %v, %v", a, b)
		}
		if !r.Equal(r.Add(r.Add(a, b), c), r.Add(a, r.Add(b, c))) {
			t.Fatalf("Add not associative: %v, %v, %v", a, b, c)
		}
		if !r.Equal(r.Add(a, r.Zero()), a) {
			t.Fatalf("Zero not additive identity for %v", a)
		}
		if !r.Equal(r.Mul(r.Mul(a, b), c), r.Mul(a, r.Mul(b, c))) {
			t.Fatalf("Mul not associative: %v, %v, %v", a, b, c)
		}
		if !r.Equal(r.Mul(a, r.One()), a) || !r.Equal(r.Mul(r.One(), a), a) {
			t.Fatalf("One not multiplicative identity for %v", a)
		}
		if !r.Equal(r.Mul(a, r.Zero()), r.Zero()) || !r.Equal(r.Mul(r.Zero(), a), r.Zero()) {
			t.Fatalf("Zero not annihilating for %v", a)
		}
		if !r.Equal(r.Mul(a, r.Add(b, c)), r.Add(r.Mul(a, b), r.Mul(a, c))) {
			t.Fatalf("left distributivity failed: %v, %v, %v", a, b, c)
		}
		if !r.Equal(r.Mul(r.Add(a, b), c), r.Add(r.Mul(a, c), r.Mul(b, c))) {
			t.Fatalf("right distributivity failed: %v, %v, %v", a, b, c)
		}
	}
}

// ringLaws additionally checks subtraction and negation.
func ringLaws[T any](t *testing.T, r ring.Ring[T], gen func(*rand.Rand) T) {
	t.Helper()
	semiringLaws[T](t, r, gen)
	rng := rand.New(rand.NewPCG(3, 4))
	for i := 0; i < 200; i++ {
		a, b := gen(rng), gen(rng)
		if !r.Equal(r.Add(a, r.Neg(a)), r.Zero()) {
			t.Fatalf("a + (-a) != 0 for %v", a)
		}
		if !r.Equal(r.Sub(a, b), r.Add(a, r.Neg(b))) {
			t.Fatalf("Sub inconsistent with Neg: %v, %v", a, b)
		}
		if !r.Equal(r.Scale(3, a), r.Add(a, r.Add(a, a))) {
			t.Fatalf("Scale(3, a) != a+a+a for %v", a)
		}
		if !r.Equal(r.Scale(-1, a), r.Neg(a)) {
			t.Fatalf("Scale(-1, a) != -a for %v", a)
		}
	}
}

func codecRoundTrip[T any](t *testing.T, c ring.Codec[T], eq func(a, b T) bool, gen func(*rand.Rand) T) {
	t.Helper()
	rng := rand.New(rand.NewPCG(5, 6))
	buf := make([]ring.Word, c.Width())
	for i := 0; i < 200; i++ {
		v := gen(rng)
		c.Encode(v, buf)
		got := c.Decode(buf)
		if !eq(v, got) {
			t.Fatalf("codec round trip: sent %v, got %v", v, got)
		}
	}
}

func smallInt(rng *rand.Rand) int64 { return rng.Int64N(2001) - 1000 }

func TestInt64Laws(t *testing.T) {
	ringLaws[int64](t, ring.Int64{}, smallInt)
	codecRoundTrip[int64](t, ring.Int64{}, func(a, b int64) bool { return a == b }, smallInt)
}

func TestInt64LawsQuick(t *testing.T) {
	r := ring.Int64{}
	distrib := func(a, b, c int64) bool {
		return r.Mul(a, r.Add(b, c)) == r.Add(r.Mul(a, b), r.Mul(a, c))
	}
	if err := quick.Check(distrib, nil); err != nil {
		t.Fatal(err)
	}
}

// TestBoolLaws checks the Boolean semiring on int64 carriers, values other
// than 0 and 1 among them (every non-zero value is true): the laws hold up
// to truth value, Add and Mul answer 0 or 1, and PackedBit carries an
// entry's truth value.
func TestBoolLaws(t *testing.T) {
	b := ring.Bool{}
	gen := func(rng *rand.Rand) int64 { return rng.Int64N(5) - 2 }
	semiringLaws[int64](t, b, gen)
	codecRoundTrip[int64](t, ring.PackedBit{}, b.Equal, gen)
	for x := int64(-2); x <= 2; x++ {
		for y := int64(-2); y <= 2; y++ {
			if s, p := b.Add(x, y), b.Mul(x, y); s < 0 || s > 1 || p < 0 || p > 1 {
				t.Fatalf("Add(%d, %d) = %d, Mul = %d: not 0/1", x, y, s, p)
			}
			if b.Equal(x, y) != ((x != 0) == (y != 0)) {
				t.Fatalf("Equal(%d, %d) = %v compares more than truth", x, y, b.Equal(x, y))
			}
		}
	}
}

func TestZpLaws(t *testing.T) {
	z := ring.NewZp(1_000_003)
	gen := func(rng *rand.Rand) int64 { return rng.Int64N(z.Modulus()) }
	ringLaws[int64](t, z, gen)
	codecRoundTrip[int64](t, z, func(a, b int64) bool { return a == b }, gen)
}

func TestZpNorm(t *testing.T) {
	z := ring.NewZp(7)
	for _, tc := range []struct{ in, want int64 }{
		{0, 0}, {6, 6}, {7, 0}, {8, 1}, {-1, 6}, {-7, 0}, {-8, 6},
	} {
		if got := z.Norm(tc.in); got != tc.want {
			t.Errorf("Norm(%d) = %d, want %d", tc.in, got, tc.want)
		}
	}
}

func TestZpPanicsOnBadModulus(t *testing.T) {
	for _, p := range []int64{0, 1, -3, 1 << 31} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZp(%d) did not panic", p)
				}
			}()
			ring.NewZp(p)
		}()
	}
}

func genMinPlus(rng *rand.Rand) int64 {
	if rng.IntN(5) == 0 {
		return ring.Inf
	}
	return rng.Int64N(1000)
}

func TestMinPlusLaws(t *testing.T) {
	semiringLaws[int64](t, ring.MinPlus{}, genMinPlus)
	codecRoundTrip[int64](t, ring.MinPlus{},
		func(a, b int64) bool { return a == b }, genMinPlus)
}

func TestMinPlusInfSaturation(t *testing.T) {
	mp := ring.MinPlus{}
	if got := mp.Mul(ring.Inf, ring.Inf); !ring.IsInf(got) {
		t.Errorf("Inf * Inf = %d, not infinite", got)
	}
	if got := mp.Mul(ring.Inf, 5); !ring.IsInf(got) {
		t.Errorf("Inf * 5 = %d, not infinite", got)
	}
	if got := mp.Add(ring.Inf, 5); got != 5 {
		t.Errorf("min(Inf, 5) = %d, want 5", got)
	}
	if ring.IsInf(0) || ring.IsInf(ring.Inf-1) || !ring.IsInf(ring.Inf) || !ring.IsInf(ring.Inf+5) {
		t.Error("IsInf threshold wrong")
	}
}

func genValW(rng *rand.Rand) ring.ValW {
	v := ring.ValW{V: rng.Int64N(100), W: rng.Int64N(8)}
	switch rng.IntN(6) {
	case 0:
		v.V = ring.Inf
		v.W = ring.NoWitness
	case 1:
		v.W = ring.NoWitness
	}
	return v
}

// TestMinPlusWLaws checks the witness-tagged semiring. Left distributivity
// only holds when the left factor is untagged, which is the only way the 3D
// algorithm uses it (S entries are untagged, T entries carry the tag); the
// test mirrors that restriction.
func TestMinPlusWLaws(t *testing.T) {
	r := ring.MinPlusW{}
	rng := rand.New(rand.NewPCG(7, 8))
	for i := 0; i < 500; i++ {
		a, b, c := genValW(rng), genValW(rng), genValW(rng)
		if !r.Equal(r.Add(a, b), r.Add(b, a)) {
			t.Fatalf("Add not commutative: %v %v", a, b)
		}
		if !r.Equal(r.Add(r.Add(a, b), c), r.Add(a, r.Add(b, c))) {
			t.Fatalf("Add not associative: %v %v %v", a, b, c)
		}
		if !r.Equal(r.Mul(r.Mul(a, b), c), r.Mul(a, r.Mul(b, c))) {
			t.Fatalf("Mul not associative: %v %v %v", a, b, c)
		}
		if !r.Equal(r.Mul(a, r.Zero()), r.Zero()) || !r.Equal(r.Mul(r.Zero(), a), r.Zero()) {
			t.Fatalf("Zero not annihilating: %v", a)
		}
		// Right distributivity holds unconditionally.
		if !r.Equal(r.Mul(r.Add(a, b), c), r.Add(r.Mul(a, c), r.Mul(b, c))) {
			t.Fatalf("right distributivity failed: %v %v %v", a, b, c)
		}
		// Left distributivity with untagged left factor.
		u := ring.ValW{V: a.V, W: ring.NoWitness}
		if !r.Equal(r.Mul(u, r.Add(b, c)), r.Add(r.Mul(u, b), r.Mul(u, c))) {
			t.Fatalf("untagged left distributivity failed: %v %v %v", u, b, c)
		}
	}
	codecRoundTrip[ring.ValW](t, r, r.Equal, genValW)
}

func TestMinPlusWWitnessPropagation(t *testing.T) {
	r := ring.MinPlusW{}
	s := ring.ValW{V: 3, W: ring.NoWitness}
	tt := ring.ValW{V: 4, W: 9}
	got := r.Mul(s, tt)
	if got.V != 7 || got.W != 9 {
		t.Errorf("Mul(s, t) = %+v, want {7 9}", got)
	}
	// Tie-break: smaller witness wins.
	x := ring.ValW{V: 5, W: 2}
	y := ring.ValW{V: 5, W: 1}
	if got := r.Add(x, y); got.W != 1 {
		t.Errorf("tie-break chose witness %d, want 1", got.W)
	}
	// Tagged beats untagged on ties.
	z := ring.ValW{V: 5, W: ring.NoWitness}
	if got := r.Add(x, z); got.W != 2 {
		t.Errorf("tagged-vs-untagged tie chose witness %d, want 2", got.W)
	}
}

func genPoly(p ring.Poly) func(*rand.Rand) ring.PolyElem {
	return func(rng *rand.Rand) ring.PolyElem {
		if rng.IntN(6) == 0 {
			return nil
		}
		e := make(ring.PolyElem, p.Cap())
		for i := range e {
			if rng.IntN(3) == 0 {
				e[i] = rng.Int64N(21) - 10
			}
		}
		return e
	}
}

func TestPolyLaws(t *testing.T) {
	p := ring.NewPoly(8)
	ringLaws[ring.PolyElem](t, p, genPoly(p))
	codecRoundTrip[ring.PolyElem](t, p, p.Equal, genPoly(p))
}

func TestPolyMonomialEmbedding(t *testing.T) {
	// Lemma 18 core: min-degree of products of monomials adds degrees.
	p := ring.NewPoly(16)
	for a := int64(0); a < 8; a++ {
		for b := int64(0); b < 8; b++ {
			prod := p.Mul(p.Monomial(a), p.Monomial(b))
			deg, ok := p.MinDegree(prod)
			if !ok || deg != a+b {
				t.Fatalf("MinDegree(X^%d * X^%d) = (%d, %v), want %d", a, b, deg, ok, a+b)
			}
		}
	}
	// Values at or beyond the cap vanish — the "∞ becomes 0" rule.
	if p.Monomial(16) != nil || p.Monomial(ring.Inf) != nil || p.Monomial(-1) != nil {
		t.Error("out-of-range monomial should be the zero polynomial")
	}
	// Truncation: degrees ≥ cap are dropped by Mul.
	prod := p.Mul(p.Monomial(10), p.Monomial(10))
	if _, ok := p.MinDegree(prod); ok {
		t.Error("product exceeding cap should truncate to zero")
	}
}

func TestPolyMinDegreeOfSum(t *testing.T) {
	// The distance-product embedding sums many monomials; min-degree picks
	// the shortest path even when counts exceed one.
	p := ring.NewPoly(10)
	sum := p.Add(p.Add(p.Monomial(7), p.Monomial(3)), p.Monomial(3))
	deg, ok := p.MinDegree(sum)
	if !ok || deg != 3 {
		t.Fatalf("MinDegree = (%d, %v), want 3", deg, ok)
	}
}

func TestPolyDecodeNormalisesZero(t *testing.T) {
	p := ring.NewPoly(4)
	buf := make([]ring.Word, 4)
	if p.Decode(buf) != nil {
		t.Error("decoding all-zero words should yield the nil zero polynomial")
	}
}

func TestNewPolyPanicsOnBadCap(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewPoly(0) did not panic")
		}
	}()
	ring.NewPoly(0)
}
