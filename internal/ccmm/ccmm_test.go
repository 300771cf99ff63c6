package ccmm_test

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"github.com/algebraic-clique/algclique/internal/bilinear"
	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

func randIntMat(rng *rand.Rand, n int, lim int64) *matrix.Dense[int64] {
	m := matrix.New[int64](n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, rng.Int64N(2*lim+1)-lim)
		}
	}
	return m
}

func randMinPlusMat(rng *rand.Rand, n int) *matrix.Dense[int64] {
	m := matrix.New[int64](n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.IntN(4) == 0 {
				m.Set(i, j, ring.Inf)
			} else {
				m.Set(i, j, rng.Int64N(100))
			}
		}
	}
	return m
}

func TestSemiring3DInt64(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	r := ring.Int64{}
	for _, n := range []int{1, 8, 27, 64} {
		a, b := randIntMat(rng, n, 30), randIntMat(rng, n, 30)
		net := clique.New(n)
		p, err := ccmm.Semiring3D[int64](net, nil, r, r, ccmm.Distribute(a), ccmm.Distribute(b))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !matrix.Equal[int64](r, p.Collect(), matrix.Mul[int64](r, a, b)) {
			t.Fatalf("n=%d: 3D product wrong", n)
		}
	}
}

func TestSemiring3DMinPlus(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 1))
	mp := ring.MinPlus{}
	for _, n := range []int{8, 27} {
		a, b := randMinPlusMat(rng, n), randMinPlusMat(rng, n)
		net := clique.New(n)
		p, err := ccmm.Semiring3D[int64](net, nil, mp, mp, ccmm.Distribute(a), ccmm.Distribute(b))
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal[int64](mp, p.Collect(), matrix.Mul[int64](mp, a, b)) {
			t.Fatalf("n=%d: min-plus 3D product wrong", n)
		}
	}
}

// boolDraw draws a 0/1 Boolean entry, true with probability ⅓.
func boolDraw(rng *rand.Rand) int64 {
	if rng.IntN(3) == 0 {
		return 1
	}
	return 0
}

func TestSemiring3DBool(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 1))
	br := ring.Bool{}
	n := 27
	a, b := matrix.New[int64](n, n), matrix.New[int64](n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, boolDraw(rng))
			b.Set(i, j, boolDraw(rng))
		}
	}
	net := clique.New(n)
	p, err := ccmm.Semiring3D[int64](net, nil, br, ring.Int64{}, ccmm.Distribute(a), ccmm.Distribute(b))
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal[int64](ring.Int64{}, p.Collect(), matrix.Mul[int64](br, a, b)) {
		t.Fatal("boolean 3D product wrong")
	}
}

func TestSemiring3DRoundScaling(t *testing.T) {
	// Rounds should scale like ~n^{1/3}: per-node volume is 3n^{4/3}+o(·)
	// words and the router delivers h words per node in ~2h/n rounds.
	r := ring.Int64{}
	rng := rand.New(rand.NewPCG(4, 1))
	for _, n := range []int{27, 64, 125} {
		a, b := randIntMat(rng, n, 5), randIntMat(rng, n, 5)
		net := clique.New(n)
		if _, err := ccmm.Semiring3D[int64](net, nil, r, r, ccmm.Distribute(a), ccmm.Distribute(b)); err != nil {
			t.Fatal(err)
		}
		cbrt := math.Cbrt(float64(n))
		bound := int64(11*cbrt + 15)
		if net.Rounds() > bound {
			t.Errorf("n=%d: %d rounds exceeds O(n^{1/3}) budget %d", n, net.Rounds(), bound)
		}
	}
	// Non-cube sizes pay a constant factor for the smaller cube (wider
	// blocks, padded by at most one entry) but must keep the O(n^{1/3})
	// shape.
	for _, n := range []int{28, 60, 100, 150, 200} {
		a, b := randIntMat(rng, n, 5), randIntMat(rng, n, 5)
		net := clique.New(n)
		if _, err := ccmm.Semiring3D[int64](net, nil, r, r, ccmm.Distribute(a), ccmm.Distribute(b)); err != nil {
			t.Fatal(err)
		}
		cbrt := math.Cbrt(float64(n))
		bound := int64(24*cbrt + 15)
		if net.Rounds() > bound {
			t.Errorf("n=%d: %d rounds exceeds padded O(n^{1/3}) budget %d", n, net.Rounds(), bound)
		}
	}
}

// awkwardSizes are the clique sizes the balanced cube layout must handle:
// tiny, just-below/at/above a cube, and the acceptance sizes 60 and 100.
var awkwardSizes = []int{2, 5, 7, 26, 27, 28, 60, 100}

// TestSemiring3DArbitrarySizesInt64 pins the tentpole contract: the 3D
// algorithm accepts every clique size, not just perfect cubes, and agrees
// with the local reference product.
func TestSemiring3DArbitrarySizesInt64(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 1))
	r := ring.Int64{}
	for _, n := range awkwardSizes {
		a, b := randIntMat(rng, n, 30), randIntMat(rng, n, 30)
		net := clique.New(n)
		p, err := ccmm.Semiring3D[int64](net, nil, r, r, ccmm.Distribute(a), ccmm.Distribute(b))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !matrix.Equal[int64](r, p.Collect(), matrix.Mul[int64](r, a, b)) {
			t.Fatalf("n=%d: padded 3D product wrong", n)
		}
	}
}

func TestSemiring3DArbitrarySizesMinPlus(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 1))
	mp := ring.MinPlus{}
	for _, n := range awkwardSizes {
		a, b := randMinPlusMat(rng, n), randMinPlusMat(rng, n)
		net := clique.New(n)
		p, err := ccmm.Semiring3D[int64](net, nil, mp, mp, ccmm.Distribute(a), ccmm.Distribute(b))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !matrix.Equal[int64](mp, p.Collect(), matrix.Mul[int64](mp, a, b)) {
			t.Fatalf("n=%d: padded min-plus 3D product wrong", n)
		}
	}
}

func TestSemiring3DArbitrarySizesBool(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 1))
	br := ring.Bool{}
	for _, n := range awkwardSizes {
		a, b := matrix.New[int64](n, n), matrix.New[int64](n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, boolDraw(rng))
				b.Set(i, j, boolDraw(rng))
			}
		}
		net := clique.New(n)
		p, err := ccmm.Semiring3D[int64](net, nil, br, ring.Int64{}, ccmm.Distribute(a), ccmm.Distribute(b))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !matrix.Equal[int64](ring.Int64{}, p.Collect(), matrix.Mul[int64](br, a, b)) {
			t.Fatalf("n=%d: padded boolean 3D product wrong", n)
		}
	}
}

// TestDistanceProduct3DArbitrarySizes runs the witness-producing variant on
// non-cube sizes: values must match the reference and every finite entry
// must carry a certifying witness.
func TestDistanceProduct3DArbitrarySizes(t *testing.T) {
	rng := rand.New(rand.NewPCG(24, 1))
	mp := ring.MinPlus{}
	for _, n := range []int{5, 26, 28, 60} {
		a, b := randMinPlusMat(rng, n), randMinPlusMat(rng, n)
		net := clique.New(n)
		p, q, err := ccmm.DistanceProduct3D(net, nil, ccmm.Distribute(a), ccmm.Distribute(b), -1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !matrix.Equal[int64](mp, p.Collect(), matrix.Mul[int64](mp, a, b)) {
			t.Fatalf("n=%d: distance product values wrong", n)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if ring.IsInf(p.Rows[u][v]) {
					continue
				}
				w := q.Rows[u][v]
				if w < 0 || w >= int64(n) {
					t.Fatalf("n=%d: witness out of range at (%d,%d): %d", n, u, v, w)
				}
				if a.At(u, int(w))+b.At(int(w), v) != p.Rows[u][v] {
					t.Fatalf("n=%d: witness %d does not certify (%d,%d)", n, w, u, v)
				}
			}
		}
	}
}

func TestSemiring3DRejectsRowMismatch(t *testing.T) {
	r := ring.Int64{}
	net := clique.New(8)
	_, err := ccmm.Semiring3D[int64](net, nil, r, r, ccmm.NewRowMat[int64](7), ccmm.NewRowMat[int64](8))
	if !errors.Is(err, ccmm.ErrSize) {
		t.Errorf("row mismatch: err = %v", err)
	}
}

// TestMulBoolRejectsMalformedOperands pins that the semiring Boolean path
// validates shapes before its pooled operand conversion: malformed inputs
// must come back as ErrSize, not a panic out of a pooled buffer.
func TestMulBoolRejectsMalformedOperands(t *testing.T) {
	net := clique.New(8)
	ragged := ccmm.NewRowMat[int64](8)
	ragged.Rows[3] = make([]int64, 12) // longer than the clique size
	if _, err := ccmm.MulBoolWith(net, ccmm.Engine3D, nil, ragged, ccmm.NewRowMat[int64](8)); !errors.Is(err, ccmm.ErrSize) {
		t.Errorf("ragged left operand: err = %v, want ErrSize", err)
	}
	if _, err := ccmm.MulBoolWith(net, ccmm.Engine3D, nil, ccmm.NewRowMat[int64](8), ccmm.NewRowMat[int64](9)); !errors.Is(err, ccmm.ErrSize) {
		t.Errorf("oversized right operand: err = %v, want ErrSize", err)
	}
}

func TestDistanceProduct3DWitnesses(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 1))
	mp := ring.MinPlus{}
	for _, n := range []int{8, 27} {
		a, b := randMinPlusMat(rng, n), randMinPlusMat(rng, n)
		net := clique.New(n)
		p, q, err := ccmm.DistanceProduct3D(net, nil, ccmm.Distribute(a), ccmm.Distribute(b), -1)
		if err != nil {
			t.Fatal(err)
		}
		want := matrix.Mul[int64](mp, a, b)
		if !matrix.Equal[int64](mp, p.Collect(), want) {
			t.Fatal("distance product values wrong")
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				w := q.Rows[u][v]
				pv := p.Rows[u][v]
				if ring.IsInf(pv) {
					if w != ring.NoWitness {
						t.Fatalf("infinite entry (%d,%d) has witness %d", u, v, w)
					}
					continue
				}
				if w < 0 || w >= int64(n) {
					t.Fatalf("witness out of range at (%d,%d): %d", u, v, w)
				}
				if a.At(u, int(w))+b.At(int(w), v) != pv {
					t.Fatalf("witness %d does not certify (%d,%d)", w, u, v)
				}
			}
		}
	}
}

func TestFastBilinearInt64(t *testing.T) {
	rng := rand.New(rand.NewPCG(6, 1))
	r := ring.Int64{}
	for _, n := range []int{16, 64} {
		a, b := randIntMat(rng, n, 20), randIntMat(rng, n, 20)
		net := clique.New(n)
		p, err := ccmm.FastBilinear[int64](net, nil, r, r, nil, ccmm.Distribute(a), ccmm.Distribute(b))
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !matrix.Equal[int64](r, p.Collect(), matrix.Mul[int64](r, a, b)) {
			t.Fatalf("n=%d: fast product wrong", n)
		}
	}
}

func TestFastBilinearExplicitSchemes(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 1))
	r := ring.Int64{}
	n := 16
	schemes := []*bilinear.Scheme{
		bilinear.Strassen(),
		bilinear.Classical(2),
		bilinear.StrassenPower(2), // d=4 | q=4, m=49 > 16 → must error
	}
	for i, s := range schemes {
		a, b := randIntMat(rng, n, 10), randIntMat(rng, n, 10)
		net := clique.New(n)
		p, err := ccmm.FastBilinear[int64](net, nil, r, r, s, ccmm.Distribute(a), ccmm.Distribute(b))
		if i == 2 {
			if !errors.Is(err, ccmm.ErrSize) {
				t.Errorf("oversized scheme accepted: %v", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("scheme %v: %v", s, err)
		}
		if !matrix.Equal[int64](r, p.Collect(), matrix.Mul[int64](r, a, b)) {
			t.Fatalf("scheme %v: wrong product", s)
		}
	}
}

func TestFastBilinearZp(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 1))
	z := ring.NewZp(1009)
	n := 64
	a, b := matrix.New[int64](n, n), matrix.New[int64](n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, rng.Int64N(1009))
			b.Set(i, j, rng.Int64N(1009))
		}
	}
	net := clique.New(n)
	p, err := ccmm.FastBilinear[int64](net, nil, z, z, nil, ccmm.Distribute(a), ccmm.Distribute(b))
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal[int64](z, p.Collect(), matrix.Mul[int64](z, a, b)) {
		t.Fatal("fast product over Zp wrong")
	}
}

func TestFastBilinearPolyRing(t *testing.T) {
	// The Lemma 18 embedding: multiply matrices of monomials and check that
	// min-degrees give the distance product. Width > 1 codecs exercise the
	// bandwidth accounting too.
	pr := ring.NewPoly(9)
	mp := ring.MinPlus{}
	rng := rand.New(rand.NewPCG(9, 1))
	n := 16
	av := matrix.New[int64](n, n)
	bv := matrix.New[int64](n, n)
	ap := matrix.New[ring.PolyElem](n, n)
	bp := matrix.New[ring.PolyElem](n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x, y := rng.Int64N(5), rng.Int64N(5)
			if rng.IntN(5) == 0 {
				x = ring.Inf
			}
			av.Set(i, j, x)
			bv.Set(i, j, y)
			ap.Set(i, j, pr.Monomial(x))
			bp.Set(i, j, pr.Monomial(y))
		}
	}
	net := clique.New(n)
	p, err := ccmm.FastBilinear[ring.PolyElem](net, nil, pr, pr, nil, ccmm.Distribute(ap), ccmm.Distribute(bp))
	if err != nil {
		t.Fatal(err)
	}
	want := matrix.Mul[int64](mp, av, bv)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			deg, ok := pr.MinDegree(p.Rows[u][v])
			wantV := want.At(u, v)
			if !ok {
				if !ring.IsInf(wantV) && wantV < 9 {
					t.Fatalf("(%d,%d): embedding lost finite distance %d", u, v, wantV)
				}
				continue
			}
			if deg != wantV {
				t.Fatalf("(%d,%d): min-degree %d, want %d", u, v, deg, wantV)
			}
		}
	}
	// Polynomial entries are 9 words wide; words sent must reflect that.
	if net.Words() < int64(9*n*n) {
		t.Errorf("suspiciously few words (%d) for width-9 codec", net.Words())
	}
}

func TestFastBilinearRejectsBadSizes(t *testing.T) {
	r := ring.Int64{}
	for _, n := range []int{8, 15} {
		net := clique.New(n)
		a := ccmm.NewRowMat[int64](n)
		if _, err := ccmm.FastBilinear[int64](net, nil, r, r, nil, a, a); !errors.Is(err, ccmm.ErrSize) {
			t.Errorf("n=%d: err = %v, want ErrSize", n, err)
		}
	}
}

func TestFastBilinearRoundsBeatNaiveAndScale(t *testing.T) {
	r := ring.Int64{}
	rng := rand.New(rand.NewPCG(10, 1))
	rounds := map[int]int64{}
	for _, n := range []int{64, 256} {
		a, b := randIntMat(rng, n, 5), randIntMat(rng, n, 5)
		net := clique.New(n)
		if _, err := ccmm.FastBilinear[int64](net, nil, r, r, nil, ccmm.Distribute(a), ccmm.Distribute(b)); err != nil {
			t.Fatal(err)
		}
		rounds[n] = net.Rounds()

		naive := clique.New(n)
		if _, err := ccmm.NaiveGather[int64](naive, nil, r, r, ccmm.Distribute(a), ccmm.Distribute(b)); err != nil {
			t.Fatal(err)
		}
		if n >= 64 && net.Rounds() >= naive.Rounds() {
			t.Errorf("n=%d: fast (%d rounds) not better than naive gather (%d rounds)",
				n, net.Rounds(), naive.Rounds())
		}
	}
	// Sub-linear growth: quadrupling n should far less than quadruple rounds.
	if rounds[256] >= 4*rounds[64] {
		t.Errorf("fast matmul rounds grew linearly: %v", rounds)
	}
}

func TestNaiveGatherMatches(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 1))
	r := ring.Int64{}
	for _, n := range []int{5, 12, 30} {
		a, b := randIntMat(rng, n, 20), randIntMat(rng, n, 20)
		net := clique.New(n)
		p, err := ccmm.NaiveGather[int64](net, nil, r, r, ccmm.Distribute(a), ccmm.Distribute(b))
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal[int64](r, p.Collect(), matrix.Mul[int64](r, a, b)) {
			t.Fatalf("n=%d: naive product wrong", n)
		}
		// Gathering n² words costs ≈ 2n rounds.
		if net.Rounds() > int64(3*n+4) {
			t.Errorf("n=%d: naive gather took %d rounds", n, net.Rounds())
		}
	}
}

func TestDistributeCollectRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 1))
	m := randIntMat(rng, 9, 50)
	rm := ccmm.Distribute(m)
	back := rm.Collect()
	if !matrix.Equal[int64](ring.Int64{}, m, back) {
		t.Fatal("Distribute/Collect round trip broken")
	}
	rm.Rows[0][0] = 999
	if m.At(0, 0) == 999 {
		t.Fatal("Distribute aliases the source matrix")
	}
}

func TestPhaseBreakdownRecorded(t *testing.T) {
	r := ring.Int64{}
	rng := rand.New(rand.NewPCG(13, 1))
	n := 27
	a, b := randIntMat(rng, n, 5), randIntMat(rng, n, 5)
	net := clique.New(n)
	if _, err := ccmm.Semiring3D[int64](net, nil, r, r, ccmm.Distribute(a), ccmm.Distribute(b)); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	names := map[string]bool{}
	var sum int64
	for _, p := range st.Phases {
		names[p.Name] = true
		sum += p.Rounds
	}
	for _, want := range []string{"mm3d/distribute", "mm3d/multiply", "mm3d/products", "mm3d/assemble"} {
		if !names[want] {
			t.Errorf("phase %q missing from stats", want)
		}
	}
	if sum != st.Rounds {
		t.Errorf("phase rounds sum %d != total %d", sum, st.Rounds)
	}
}
