package algclique_test

import (
	"math/rand/v2"
	"testing"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/graphs"
)

func TestMatMulPadsArbitrarySizes(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, n := range []int{1, 2, 5, 10, 17, 30} {
		a := randMat(rng, n, 20)
		b := randMat(rng, n, 20)
		p, stats, err := openSession(t, n).MatMul(a, b)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := mulRef(a, b)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if p[i][j] != want[i][j] {
					t.Fatalf("n=%d: wrong product at (%d,%d)", n, i, j)
				}
			}
		}
		if stats.N < n || (n > 1 && stats.Rounds < 1) {
			t.Errorf("n=%d: implausible stats %+v", n, stats)
		}
		if stats.N != n && stats.PaddedFrom != n {
			t.Errorf("n=%d: padding not reported: %+v", n, stats)
		}
	}
}

// openSession builds a session for instances of size n, closed when the
// test ends.
func openSession(t testing.TB, n int, opts ...cc.SessionOption) *cc.Clique {
	t.Helper()
	s, err := cc.NewClique(n, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func randMat(rng *rand.Rand, n int, lim int64) [][]int64 {
	out := make([][]int64, n)
	for i := range out {
		out[i] = make([]int64, n)
		for j := range out[i] {
			out[i][j] = rng.Int64N(2*lim+1) - lim
		}
	}
	return out
}

func mulRef(a, b [][]int64) [][]int64 {
	n := len(a)
	out := make([][]int64, n)
	for i := range out {
		out[i] = make([]int64, n)
		for k := 0; k < n; k++ {
			for j := 0; j < n; j++ {
				out[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return out
}

func TestDistanceProduct(t *testing.T) {
	a := [][]int64{
		{0, 3, cc.Inf},
		{cc.Inf, 0, 4},
		{1, cc.Inf, 0},
	}
	p, stats, err := openSession(t, 3).DistanceProduct(a, a)
	if err != nil {
		t.Fatal(err)
	}
	if p[0][2] != 7 || p[2][1] != 4 || p[0][0] != 0 {
		t.Errorf("distance product wrong: %v", p)
	}
	// Min-plus products run unpadded: the 3D engine takes any clique size.
	if stats.N != 3 || stats.PaddedFrom != 0 {
		t.Errorf("expected unpadded 3-node run, got %+v", stats)
	}
	if _, _, err := openSession(t, 3, cc.WithEngine(cc.Fast)).DistanceProduct(a, a); err == nil {
		t.Error("fast engine accepted for min-plus")
	}
}

func TestMatMulBool(t *testing.T) {
	a := [][]int64{{0, 1}, {0, 0}}
	b := [][]int64{{0, 0}, {1, 0}}
	p, _, err := openSession(t, 2).MatMulBool(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p[0][0] != 1 || p[0][1] != 0 || p[1][0] != 0 {
		t.Errorf("bool product wrong: %v", p)
	}
}

func TestCountingAPIsWithPadding(t *testing.T) {
	// A 10-node graph (Petersen) exercises the padding path for every
	// counting entry point.
	g := cc.Petersen()
	s := openSession(t, g.N())
	tri, stats, err := s.CountTriangles(g)
	if err != nil || tri != 0 {
		t.Errorf("Petersen triangles = (%d, %v)", tri, err)
	}
	if stats.PaddedFrom != 10 {
		t.Errorf("expected padding: %+v", stats)
	}
	c4, _, err := s.CountFourCycles(g)
	if err != nil || c4 != 0 {
		t.Errorf("Petersen C4s = (%d, %v)", c4, err)
	}
	k5 := cc.Complete(5, false)
	s5 := openSession(t, k5.N())
	tri, _, err = s5.CountTriangles(k5)
	if err != nil || tri != 10 {
		t.Errorf("K5 triangles = (%d, %v), want 10", tri, err)
	}
	c4, _, err = s5.CountFourCycles(k5)
	if err != nil || c4 != 15 {
		t.Errorf("K5 C4s = (%d, %v), want 15", c4, err)
	}
}

func TestCountTrianglesAllEnginesAgree(t *testing.T) {
	g := cc.GNP(27, 0.3, false, 4)
	want := graphs.CountTrianglesRef(g)
	for _, e := range []cc.Engine{cc.Auto, cc.Fast, cc.Semiring3D, cc.Naive} {
		got, _, err := openSession(t, g.N(), cc.WithEngine(e)).CountTriangles(g)
		if err != nil {
			t.Fatalf("engine %v: %v", e, err)
		}
		if got != want {
			t.Errorf("engine %v: %d triangles, want %d", e, got, want)
		}
	}
}

func TestDetectFourCycleAPI(t *testing.T) {
	torus := cc.Torus(4, 5)
	found, stats, err := openSession(t, torus.N()).DetectFourCycle(torus)
	if err != nil || !found {
		t.Errorf("torus C4 = (%v, %v)", found, err)
	}
	if stats.Rounds < 1 {
		t.Error("no rounds recorded")
	}
	found, _, err = openSession(t, 10).DetectFourCycle(cc.Petersen())
	if err != nil || found {
		t.Errorf("Petersen C4 = (%v, %v)", found, err)
	}
}

func TestDetectCycleAPI(t *testing.T) {
	g, _ := cc.PlantedCycle(14, 5, 0.02, false, 3)
	found, _, err := openSession(t, g.N()).DetectCycle(g, 5, cc.WithColourings(150), cc.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Error("planted 5-cycle missed")
	}
	found, _, err = openSession(t, 14).DetectCycle(cc.Tree(14, 1), 4, cc.WithColourings(20))
	if err != nil || found {
		t.Errorf("tree 4-cycle = (%v, %v)", found, err)
	}
}

func TestGirthAPI(t *testing.T) {
	val, ok, _, err := openSession(t, 10).Girth(cc.Petersen(), cc.WithColourings(150), cc.WithSeed(2))
	if err != nil {
		t.Fatal(err)
	}
	if !ok || val != 5 {
		t.Errorf("Petersen girth = (%d, %v), want (5, true)", val, ok)
	}
	val, ok, _, err = openSession(t, 12).Girth(cc.Cycle(12, true))
	if err != nil {
		t.Fatal(err)
	}
	if !ok || val != 12 {
		t.Errorf("directed C12 girth = (%d, %v)", val, ok)
	}
	_, ok, _, err = openSession(t, 13).Girth(cc.Tree(13, 5))
	if err != nil || ok {
		t.Errorf("tree girth ok=%v err=%v", ok, err)
	}
}

func TestAPSPAPIs(t *testing.T) {
	g := cc.RandomConnectedWeighted(20, 0.2, 9, true, 11)
	want, err := graphs.FloydWarshall(g)
	if err != nil {
		t.Fatal(err)
	}
	check := func(name string, res *cc.APSPResult) {
		t.Helper()
		for u := 0; u < 20; u++ {
			for v := 0; v < 20; v++ {
				if res.Dist[u][v] != want.At(u, v) {
					t.Fatalf("%s: d(%d,%d) = %d, want %d", name, u, v, res.Dist[u][v], want.At(u, v))
				}
			}
		}
	}

	s := openSession(t, g.N())
	exact, stats, err := s.APSP(g)
	if err != nil {
		t.Fatal(err)
	}
	check("semiring", exact)
	// The semiring APSP runs unpadded on the instance's own 20-node clique.
	if stats.PaddedFrom != 0 || stats.N != 20 {
		t.Errorf("APSP expected unpadded 20-node stats, got %+v", stats)
	}
	if err := cc.ValidateRouting(g, exact); err != nil {
		t.Fatal(err)
	}
	path := exact.Path(0, 7)
	if len(path) < 2 || path[0] != 0 || path[len(path)-1] != 7 {
		t.Errorf("bad path: %v", path)
	}

	small, _, err := s.APSPSmallWeights(g)
	if err != nil {
		t.Fatal(err)
	}
	check("small-weights", small)

	naive, _, err := s.APSPNaive(g)
	if err != nil {
		t.Fatal(err)
	}
	check("naive", naive)

	approx, stretch, _, err := s.APSPApprox(g, cc.WithDelta(0.2))
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 20; u++ {
		for v := 0; v < 20; v++ {
			exactD, approxD := want.At(u, v), approx.Dist[u][v]
			if cc.IsInf(exactD) != cc.IsInf(approxD) {
				t.Fatalf("approx infinity mismatch at (%d,%d)", u, v)
			}
			if cc.IsInf(exactD) {
				continue
			}
			if approxD < exactD || float64(approxD) > stretch*float64(exactD)+1e-9 {
				t.Fatalf("approx out of bounds at (%d,%d): %d vs %d (stretch %.3f)", u, v, approxD, exactD, stretch)
			}
		}
	}
}

func TestAPSPUnweightedAPI(t *testing.T) {
	g := cc.GNP(20, 0.2, false, 13)
	s := openSession(t, g.N())
	res, _, err := s.APSPUnweighted(g)
	if err != nil {
		t.Fatal(err)
	}
	want := graphs.BFSAllPairs(g)
	for u := 0; u < 20; u++ {
		for v := 0; v < 20; v++ {
			if res.Dist[u][v] != want.At(u, v) {
				t.Fatalf("Seidel API d(%d,%d) = %d, want %d", u, v, res.Dist[u][v], want.At(u, v))
			}
		}
	}

	withRouting, _, err := s.APSPUnweightedWithRouting(g)
	if err != nil {
		t.Fatal(err)
	}
	if err := cc.ValidateRouting(cc.UnitWeights(g), withRouting); err != nil {
		t.Fatal(err)
	}
}

func TestDolevBaselineAPI(t *testing.T) {
	g := cc.GNP(20, 0.4, false, 17)
	s := openSession(t, g.N())
	fast, _, err := s.CountTriangles(g)
	if err != nil {
		t.Fatal(err)
	}
	dolev, _, err := s.CountTrianglesDolev(g)
	if err != nil {
		t.Fatal(err)
	}
	if fast != dolev {
		t.Errorf("fast (%d) and Dolev (%d) disagree", fast, dolev)
	}
}

func TestStatsPhasesPresent(t *testing.T) {
	g := cc.GNP(16, 0.3, false, 19)
	_, stats, err := openSession(t, g.N()).CountTriangles(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(stats.Phases) == 0 {
		t.Fatal("no phase breakdown")
	}
	var sum int64
	for _, p := range stats.Phases {
		sum += p.Rounds
	}
	if sum != stats.Rounds {
		t.Errorf("phase rounds %d != total %d", sum, stats.Rounds)
	}
}

func TestEngineStrings(t *testing.T) {
	for _, e := range []cc.Engine{cc.Auto, cc.Fast, cc.Semiring3D, cc.Naive} {
		if e.String() == "" {
			t.Error("empty engine name")
		}
	}
}
