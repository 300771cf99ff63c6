package distance_test

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/distance"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

func TestAPSPSemiringMatchesFloydWarshall(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graphs.Weighted
	}{
		{"dense27", graphs.RandomWeighted(27, 0.4, 20, true, 1)},
		{"sparse27", graphs.RandomWeighted(27, 0.1, 50, true, 2)},
		{"undirected8", graphs.RandomWeighted(8, 0.5, 9, false, 3)},
		{"connected27", graphs.RandomConnectedWeighted(27, 0.15, 30, true, 4)},
		{"noncube20", graphs.RandomWeighted(20, 0.25, 25, true, 23)},
		{"noncube30", graphs.RandomConnectedWeighted(30, 0.2, 40, true, 24)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := clique.New(tc.g.N())
			res, err := distance.APSPSemiring(net, tc.g)
			if err != nil {
				t.Fatal(err)
			}
			want, err := graphs.FloydWarshall(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal[int64](ring.MinPlus{}, res.Dist.Collect(), want) {
				t.Fatal("distances disagree with Floyd–Warshall")
			}
			if err := distance.ValidateRouting(tc.g, res.Dist.Collect(), res.Next.Collect()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAPSPSemiringNegativeWeights(t *testing.T) {
	g := graphs.NewWeighted(8, true)
	g.SetEdge(0, 1, 5)
	g.SetEdge(1, 2, -3)
	g.SetEdge(2, 3, 4)
	g.SetEdge(0, 3, 10)
	g.SetEdge(3, 0, 1)
	net := clique.New(8)
	res, err := distance.APSPSemiring(net, g)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := graphs.FloydWarshall(g)
	if !matrix.Equal[int64](ring.MinPlus{}, res.Dist.Collect(), want) {
		t.Fatal("negative-weight distances wrong")
	}
	if res.Dist.Rows[0][3] != 6 {
		t.Errorf("d(0,3) = %d, want 6 via the negative edge", res.Dist.Rows[0][3])
	}
}

func TestAPSPSemiringNegativeCycleRejected(t *testing.T) {
	g := graphs.NewWeighted(8, true)
	g.SetEdge(0, 1, 2)
	g.SetEdge(1, 0, -5)
	net := clique.New(8)
	if _, err := distance.APSPSemiring(net, g); err == nil {
		t.Fatal("negative cycle accepted")
	}
}

// TestAPSPSemiringNonCubeSize pins the any-size cube layout: the
// semiring APSP runs on non-cube cliques (the seed rejected n = 10 with
// ErrSize), while a graph/clique size mismatch is still an error.
func TestAPSPSemiringNonCubeSize(t *testing.T) {
	g := graphs.RandomWeighted(10, 0.3, 5, true, 5)
	net := clique.New(10)
	res, err := distance.APSPSemiring(net, g)
	if err != nil {
		t.Fatalf("non-cube n=10: %v", err)
	}
	want, err := graphs.FloydWarshall(g)
	if err != nil {
		t.Fatal(err)
	}
	if !matrix.Equal[int64](ring.MinPlus{}, res.Dist.Collect(), want) {
		t.Fatal("non-cube distances disagree with Floyd–Warshall")
	}
	if _, err := distance.APSPSemiring(clique.New(11), g); !errors.Is(err, ccmm.ErrSize) {
		t.Fatalf("size mismatch: err = %v, want ErrSize", err)
	}
}

func TestAPSPSemiringRoundBudget(t *testing.T) {
	g := graphs.RandomWeighted(64, 0.2, 10, true, 6)
	net := clique.New(64)
	if _, err := distance.APSPSemiring(net, g); err != nil {
		t.Fatal(err)
	}
	// ⌈log₂ 64⌉ = 6 squarings at O(n^{1/3}) each; witnesses double width.
	if net.Rounds() > 6*2*(11*4+15) {
		t.Errorf("APSP used %d rounds; exceeds O(n^{1/3} log n) budget", net.Rounds())
	}
}

func TestAPSPSeidelMatchesBFS(t *testing.T) {
	for _, tc := range []struct {
		name   string
		g      *graphs.Graph
		engine ccmm.Engine
	}{
		{"connected16", graphs.GNP(16, 0.35, false, 7), ccmm.EngineFast},
		{"sparse16", graphs.GNP(16, 0.15, false, 8), ccmm.EngineFast},
		{"disconnected16", disconnected(16), ccmm.EngineFast},
		{"cycle27", graphs.Cycle(27, false), ccmm.Engine3D},
		{"gnp27", graphs.GNP(27, 0.2, false, 9), ccmm.Engine3D},
		{"gnp64auto", graphs.GNP(64, 0.08, false, 10), ccmm.EngineAuto},
		{"path16", graphs.Path(16, false), ccmm.EngineFast},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := clique.New(tc.g.N())
			d, err := distance.APSPSeidel(net, tc.engine, tc.g)
			if err != nil {
				t.Fatal(err)
			}
			want := graphs.BFSAllPairs(tc.g)
			if !matrix.Equal[int64](ring.MinPlus{}, d.Collect(), want) {
				t.Fatal("Seidel distances disagree with BFS")
			}
		})
	}
}

func disconnected(n int) *graphs.Graph {
	g := graphs.NewGraph(n, false)
	for i := 0; i+1 < n/2; i++ {
		g.AddEdge(i, i+1)
	}
	for i := n / 2; i+1 < n; i++ {
		g.AddEdge(i, i+1)
	}
	return g
}

func TestAPSPSeidelRejectsDirected(t *testing.T) {
	net := clique.New(16)
	if _, err := distance.APSPSeidel(net, ccmm.EngineFast, graphs.Cycle(16, true)); err == nil {
		t.Fatal("directed graph accepted by Seidel")
	}
}

func TestDistanceProductSmallMatchesMinPlus(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 1))
	mp := ring.MinPlus{}
	for _, tc := range []struct {
		n      int
		engine ccmm.Engine
	}{
		{16, ccmm.EngineFast},
		{8, ccmm.Engine3D},
		{12, ccmm.EngineNaive},
	} {
		const m = 7
		a := randBounded(rng, tc.n, m)
		b := randBounded(rng, tc.n, m)
		net := clique.New(tc.n)
		p, err := distance.DistanceProductSmall(net, tc.engine, ccmm.Distribute(a), ccmm.Distribute(b), m)
		if err != nil {
			t.Fatalf("n=%d: %v", tc.n, err)
		}
		want := matrix.Mul[int64](mp, a, b)
		// Entries may exceed 2M = cap; those are reported as ∞ by the
		// embedding only if above 2M — but with inputs ≤ M every finite
		// output is ≤ 2M, so results must agree exactly.
		if !matrix.Equal[int64](mp, p.Collect(), want) {
			t.Fatalf("n=%d engine=%v: embedded distance product wrong", tc.n, tc.engine)
		}
	}
}

func randBounded(rng *rand.Rand, n int, m int64) *matrix.Dense[int64] {
	out := matrix.New[int64](n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rng.IntN(4) == 0 {
				out.Set(i, j, ring.Inf)
			} else {
				out.Set(i, j, rng.Int64N(m+1))
			}
		}
	}
	return out
}

func TestDistanceProductSmallRejectsOutOfRange(t *testing.T) {
	net := clique.New(16)
	a := ccmm.NewRowMat[int64](16)
	a.Rows[2][3] = 99
	if _, err := distance.DistanceProductSmall(net, ccmm.EngineFast, a, ccmm.NewRowMat[int64](16), 7); err == nil {
		t.Fatal("entry above M accepted")
	}
	b := ccmm.NewRowMat[int64](16)
	b.Rows[0][0] = -2
	if _, err := distance.DistanceProductSmall(net, ccmm.EngineFast, b, ccmm.NewRowMat[int64](16), 7); err == nil {
		t.Fatal("negative entry accepted")
	}
}

func TestAPSPBoundedTruncates(t *testing.T) {
	// A path graph: distances beyond M must come back infinite, those
	// within M exact.
	g := graphs.UnitWeights(graphs.Path(16, false))
	net := clique.New(16)
	const m = 4
	d, err := distance.APSPBounded(net, ccmm.EngineFast, distWeights(g), m)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < 16; u++ {
		for v := 0; v < 16; v++ {
			want := int64(abs(u - v))
			got := d.Rows[u][v]
			if want <= m && got != want {
				t.Fatalf("d(%d,%d) = %d, want %d", u, v, got, want)
			}
			if want > m && !ring.IsInf(got) {
				t.Fatalf("d(%d,%d) = %d, want ∞ beyond bound %d", u, v, got, m)
			}
		}
	}
}

func distWeights(g *graphs.Weighted) *ccmm.RowMat[int64] {
	return ccmm.Distribute(g.Matrix())
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestAPSPSmallWeightsMatchesFloydWarshall(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graphs.Weighted
	}{
		{"connected16", graphs.RandomConnectedWeighted(16, 0.2, 4, true, 12)},
		{"sparse16", graphs.RandomWeighted(16, 0.15, 3, true, 13)},
		{"undirected16", graphs.RandomWeighted(16, 0.25, 5, false, 14)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := clique.New(tc.g.N())
			d, err := distance.APSPSmallWeights(net, ccmm.EngineFast, tc.g)
			if err != nil {
				t.Fatal(err)
			}
			want, err := graphs.FloydWarshall(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if !matrix.Equal[int64](ring.MinPlus{}, d.Collect(), want) {
				t.Fatal("small-weight APSP disagrees with Floyd–Warshall")
			}
		})
	}
}

func TestAPSPSmallWeightsRejectsNonPositive(t *testing.T) {
	g := graphs.NewWeighted(16, true)
	g.SetEdge(0, 1, 0)
	net := clique.New(16)
	if _, err := distance.APSPSmallWeights(net, ccmm.EngineFast, g); !errors.Is(err, ccmm.ErrSize) {
		t.Fatalf("err = %v, want ErrSize for zero weight", err)
	}
}

func TestApproxDistanceProductBounds(t *testing.T) {
	rng := rand.New(rand.NewPCG(15, 1))
	mp := ring.MinPlus{}
	const n, m = 16, 200
	for _, delta := range []float64{0.1, 0.3, 1.0} {
		a := randBoundedLarge(rng, n, m)
		b := randBoundedLarge(rng, n, m)
		net := clique.New(n)
		p, err := distance.ApproxDistanceProduct(net, ccmm.EngineFast, ccmm.Distribute(a), ccmm.Distribute(b), m, delta)
		if err != nil {
			t.Fatal(err)
		}
		want := matrix.Mul[int64](mp, a, b)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				exact, approx := want.At(u, v), p.Rows[u][v]
				if ring.IsInf(exact) != ring.IsInf(approx) {
					t.Fatalf("δ=%v (%d,%d): infinity mismatch (exact %d, approx %d)", delta, u, v, exact, approx)
				}
				if ring.IsInf(exact) {
					continue
				}
				if approx < exact {
					t.Fatalf("δ=%v (%d,%d): approx %d underestimates %d", delta, u, v, approx, exact)
				}
				if float64(approx) > (1+delta)*float64(exact)+1e-6 {
					t.Fatalf("δ=%v (%d,%d): approx %d exceeds (1+δ)·%d", delta, u, v, approx, exact)
				}
			}
		}
	}
}

func randBoundedLarge(rng *rand.Rand, n int, m int64) *matrix.Dense[int64] {
	out := matrix.New[int64](n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch rng.IntN(5) {
			case 0:
				out.Set(i, j, ring.Inf)
			case 1:
				out.Set(i, j, rng.Int64N(10))
			default:
				out.Set(i, j, rng.Int64N(m+1))
			}
		}
	}
	return out
}

// TestAPSPApproxChargesMaxWeight: the largest edge weight, which sizes the
// entry bound M, is learnt through one charged broadcast round — each node
// sends its row maximum — before the first squaring, not read centrally.
func TestAPSPApproxChargesMaxWeight(t *testing.T) {
	g := graphs.RandomConnectedWeighted(16, 0.2, 30, true, 16)
	n := g.N()
	net := clique.New(n)
	if _, _, err := distance.APSPApprox(net, ccmm.EngineFast, g, distance.ApproxOpts{Delta: 0.25}); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	if len(st.Phases) == 0 || st.Phases[0].Name != "apsp-approx/max-weight" {
		t.Fatalf("first phase %+v, want apsp-approx/max-weight", st.Phases)
	}
	if p := st.Phases[0]; p.Rounds != 1 || p.Words != int64(n*(n-1)) {
		t.Fatalf("max-weight phase charged %d rounds, %d words; want 1 round, %d words", p.Rounds, p.Words, n*(n-1))
	}
	var squares int64
	for _, p := range st.Phases[1:] {
		squares += p.Rounds
	}
	if st.Rounds != 1+squares {
		t.Fatalf("%d rounds, want the max-weight round + %d for the squarings", st.Rounds, squares)
	}
}

func TestAPSPApproxStretch(t *testing.T) {
	for _, tc := range []struct {
		name  string
		g     *graphs.Weighted
		delta float64
	}{
		{"connected16", graphs.RandomConnectedWeighted(16, 0.2, 30, true, 16), 0.25},
		{"sparse16", graphs.RandomWeighted(16, 0.2, 10, true, 17), 0.2},
		{"default-delta", graphs.RandomConnectedWeighted(16, 0.3, 8, true, 18), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := clique.New(tc.g.N())
			d, stretch, err := distance.APSPApprox(net, ccmm.EngineFast, tc.g, distance.ApproxOpts{Delta: tc.delta})
			if err != nil {
				t.Fatal(err)
			}
			want, err := graphs.FloydWarshall(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if stretch < 1 || stretch > 3 {
				t.Fatalf("implausible stretch bound %v", stretch)
			}
			n := tc.g.N()
			for u := 0; u < n; u++ {
				for v := 0; v < n; v++ {
					exact, approx := want.At(u, v), d.Rows[u][v]
					if ring.IsInf(exact) != ring.IsInf(approx) {
						t.Fatalf("(%d,%d): infinity mismatch", u, v)
					}
					if ring.IsInf(exact) {
						continue
					}
					if approx < exact {
						t.Fatalf("(%d,%d): approx %d below exact %d", u, v, approx, exact)
					}
					if float64(approx) > stretch*float64(exact)+1e-6 {
						t.Fatalf("(%d,%d): approx %d exceeds stretch %.4f × exact %d", u, v, approx, stretch, exact)
					}
				}
			}
		})
	}
}

// TestRoutingFromDistances pins the routing table entry for entry: on both
// transports it is the centralised witness of W′ ⋆ D (W′ the weights with
// the diagonal lifted to ∞; smallest first hop on ties, NoWitness where
// unreachable) with u on the diagonal, and it passes ValidateRouting. The
// verify rows then check, input by input, that the wire run charged
// exactly the direct run's ledger. The sparse GNP draws leave some graphs
// disconnected.
func TestRoutingFromDistances(t *testing.T) {
	type input struct {
		name string
		g    *graphs.Graph
	}
	var inputs []input
	for _, n := range []int{5, 16, 27, 40} {
		for i, p := range []float64{0.05, 0.2, 0.6} {
			inputs = append(inputs, input{fmt.Sprintf("gnp-n%d-p%v", n, p), graphs.GNP(n, p, false, uint64(21+10*n+i))})
		}
	}
	inputs = append(inputs, input{"path-n16", graphs.Path(16, false)})
	unreachable := 0
	ledgers := map[clique.Transport]map[string]clique.Stats{}
	for _, tr := range []clique.Transport{clique.TransportDirect, clique.TransportWire} {
		ledgers[tr] = map[string]clique.Stats{}
		for _, in := range inputs {
			t.Run(fmt.Sprintf("%v/%s", tr, in.name), func(t *testing.T) {
				w := graphs.UnitWeights(in.g)
				dist, err := graphs.FloydWarshall(w)
				if err != nil {
					t.Fatal(err)
				}
				n := in.g.N()
				lifted := w.Matrix().Clone()
				for u := 0; u < n; u++ {
					lifted.Set(u, u, ring.Inf)
				}
				_, want := matrix.DistanceProductWitness(lifted, dist)
				for u := 0; u < n; u++ {
					want.Set(u, u, int64(u))
					for v := 0; v < n; v++ {
						if want.At(u, v) == ring.NoWitness {
							unreachable++
						}
					}
				}
				net := clique.New(n, clique.WithTransport(tr))
				defer net.Close()
				next, err := distance.RoutingFromDistances(net, distWeights(w), ccmm.Distribute(dist), int64(n))
				if err != nil {
					t.Fatal(err)
				}
				got := next.Collect()
				for u := 0; u < n; u++ {
					for v := 0; v < n; v++ {
						if g, x := got.At(u, v), want.At(u, v); g != x {
							t.Fatalf("Next[%d][%d] = %d, want %d", u, v, g, x)
						}
					}
				}
				if err := distance.ValidateRouting(w, dist, got); err != nil {
					t.Fatal(err)
				}
				ledgers[tr][in.name] = net.Stats()
			})
		}
	}
	for _, in := range inputs {
		t.Run("verify/"+in.name, func(t *testing.T) {
			direct, ok := ledgers[clique.TransportDirect][in.name]
			wire, ok2 := ledgers[clique.TransportWire][in.name]
			if !ok || !ok2 {
				t.Fatal("a transport run failed; nothing to compare")
			}
			if !reflect.DeepEqual(wire, direct) {
				t.Fatalf("wire charged %+v, direct %+v", wire, direct)
			}
		})
	}
	if unreachable == 0 {
		t.Fatal("no input has an unreachable pair")
	}
}

func TestValidateRoutingCatchesCorruption(t *testing.T) {
	g := graphs.RandomConnectedWeighted(8, 0.4, 5, true, 22)
	net := clique.New(8)
	res, err := distance.APSPSemiring(net, g)
	if err != nil {
		t.Fatal(err)
	}
	dist := res.Dist.Collect()
	next := res.Next.Collect()
	if err := distance.ValidateRouting(g, dist, next); err != nil {
		t.Fatal(err)
	}
	// Corrupt one entry: point a reachable pair at a wrong hop.
	for u := 0; u < 8; u++ {
		for v := 0; v < 8; v++ {
			if u != v && !ring.IsInf(dist.At(u, v)) {
				bad := (int(next.At(u, v)) + 1) % 8
				if bad == u {
					bad = (bad + 1) % 8
				}
				next.Set(u, v, int64(bad))
				if err := distance.ValidateRouting(g, dist, next); err == nil {
					t.Fatal("corrupted routing table accepted")
				}
				return
			}
		}
	}
}
