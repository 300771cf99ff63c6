package algclique_test

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/matrix"
)

// fixedPointGraphs returns the weighted digraphs the fixed-point test
// squares, by name: a path, a star, a random digraph (out-degree about 4),
// a disconnected graph (a path on one half, disjoint 2-cycles on the
// other) and, for APSP only, a negatively weighted acyclic orientation of
// a random graph. Weights are drawn from 1 … 4 (−2 … 1 on the acyclic
// graph), independently per direction.
func fixedPointGraphs(n int) map[string]*cc.Weighted {
	rng := rand.New(rand.NewPCG(uint64(n), 34))
	weigh := func(g *cc.Graph, lo int64, forward bool) *cc.Weighted {
		w := cc.NewWeighted(n, true)
		for u := 0; u < n; u++ {
			for _, v := range g.Neighbors(u) {
				if !forward || v > u {
					w.SetEdge(u, v, lo+rng.Int64N(4))
				}
			}
		}
		return w
	}
	star := cc.NewGraph(n, false)
	for v := 1; v < n; v++ {
		star.AddEdge(0, v)
	}
	split := cc.NewGraph(n, true)
	for v := 0; v+1 < n/2; v++ {
		split.AddEdge(v, v+1)
	}
	for v := n / 2; v+1 < n; v += 2 {
		split.AddEdge(v, v+1)
		split.AddEdge(v+1, v)
	}
	return map[string]*cc.Weighted{
		"path":         weigh(cc.Path(n, false), 1, false),
		"star":         weigh(star, 1, false),
		"random":       weigh(cc.GNP(n, 4/float64(n), true, uint64(n)), 1, false),
		"disconnected": weigh(split, 1, false),
		"negative":     weigh(cc.GNP(n, 6/float64(n), false, uint64(n)+1), -2, true),
	}
}

// hopsNeeded is the largest number of hops any shortest path needs: for
// each source, the fewest Bellman–Ford layers after which its distances
// equal the reference (1 when no pair needs more, as on an edgeless
// graph).
func hopsNeeded(g *cc.Weighted, want *matrix.Dense[int64]) int {
	n := g.N()
	type edge struct {
		u, v int
		w    int64
	}
	var edges []edge
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if g.HasEdge(u, v) {
				edges = append(edges, edge{u, v, g.Weight(u, v)})
			}
		}
	}
	h := 1
	cur, next := make([]int64, n), make([]int64, n)
	for s := 0; s < n; s++ {
		for v := range cur {
			cur[v] = cc.Inf
		}
		cur[s] = 0
		for k := 0; !slices.Equal(cur, want.Row(s)); k++ {
			copy(next, cur)
			for _, e := range edges {
				if !cc.IsInf(cur[e.u]) && cur[e.u]+e.w < next[e.v] {
					next[e.v] = cur[e.u] + e.w
				}
			}
			cur, next = next, cur
			h = max(h, k+1)
		}
	}
	return h
}

// log2Ceil is ⌈log₂ n⌉.
func log2Ceil(n int) int { return bits.Len(uint(n - 1)) }

// cappedPathRounds are the rounds APSP and TransitiveClosure charged on the
// path of fixedPointGraphs when every loop ran all ⌈log₂ n⌉ squarings: the
// fixed-point rule adds one round per squaring but the last. The APSP
// column was measured by running the loop with the rule off (APSPSemiring
// with the fixed-point round never asked) on the packed codec: the max-weight round and
// ⌈log₂ n⌉ products, squaring s at its hop bound min(2^{s+1}, n−1)·maxW,
// with no negative-cycle round, since the path has no negative weight —
// each 3D exchange on the cheaper of the stripe and the König assignment.
// The closure column was measured the same way (distance.Closure with
// the fixed-point round never asked, which reproduces the earlier 80 / 120 / 229 on the
// bilinear integer embedding) with every dense-routed Boolean squaring on
// the packed 3D engine an Auto plan now picks: ⌈log₂ n⌉ routed products,
// each with its census round.
var cappedPathRounds = map[int]struct{ apsp, closure int64 }{
	16:  {17, 16},
	64:  {35, 24},
	144: {68, 69},
}

// TestSquaringStopsAtFixedPoint: every iterated-squaring loop stops one
// charged round after no row changed, and what it returns is still the
// reference answer — APSP (with a routing table ValidateRouting accepts),
// TransitiveClosure, APSPCSR, TransitiveClosureCSR and APSPSmallWeights,
// on paths, stars, random, disconnected and negatively weighted graphs.
// APSP runs exactly min(⌈log₂ n⌉, ⌈log₂ h⌉ + 1) squarings, h the largest
// hop count a shortest path needs; on a path, which needs them all, the
// checks cost ⌈log₂ n⌉ − 1 rounds over the capped loop; and a negative
// cycle is still refused.
func TestSquaringStopsAtFixedPoint(t *testing.T) {
	for _, n := range []int{16, 64, 144} {
		for name, g := range fixedPointGraphs(n) {
			t.Run(fmt.Sprintf("%s/n=%d", name, n), func(t *testing.T) {
				s := openSession(t, n)
				want, err := graphs.FloydWarshall(g)
				if err != nil {
					t.Fatal(err)
				}
				res, st, err := s.APSP(g)
				if err != nil {
					t.Fatal(err)
				}
				checkDist(t, "APSP", res.Dist, want)
				if err := cc.ValidateRouting(g, res); err != nil {
					t.Error(err)
				}
				h := hopsNeeded(g, want)
				squarings := 0
				for _, p := range st.Phases {
					if strings.HasPrefix(p.Name, "apsp3d/square-") {
						squarings++
					}
				}
				if wantSq := min(log2Ceil(n), log2Ceil(h)+1); squarings != wantSq {
					t.Errorf("APSP ran %d squarings, want min(⌈log₂ %d⌉, ⌈log₂ %d⌉ + 1) = %d", squarings, n, h, wantSq)
				}

				u := g.Unweighted()
				reach := graphs.BFSAllPairs(u)
				closure, cst, err := s.TransitiveClosure(u)
				if err != nil {
					t.Fatal(err)
				}
				for a := 0; a < n; a++ {
					for b := 0; b < n; b++ {
						wantR := int64(1)
						if cc.IsInf(reach.At(a, b)) {
							wantR = 0
						}
						if closure[a][b] != wantR {
							t.Fatalf("TransitiveClosure[%d][%d] = %d, want %d", a, b, closure[a][b], wantR)
						}
					}
				}
				if name == "path" {
					extra := int64(log2Ceil(n) - 1)
					if p := cappedPathRounds[n]; st.Rounds != p.apsp+extra || cst.Rounds != p.closure+extra {
						t.Errorf("path rounds APSP %d, closure %d; want %d + %d and %d + %d",
							st.Rounds, cst.Rounds, p.apsp, extra, p.closure, extra)
					}
				}

				adj := make(cc.Mat, n)
				for a := range adj {
					adj[a] = make([]int64, n)
					for b := 0; b < n; b++ {
						if u.HasEdge(a, b) {
							adj[a][b] = 1
						}
					}
				}
				ca, err := cc.CSRFromMat(adj, 0)
				if err != nil {
					t.Fatal(err)
				}
				pc, _, err := s.TransitiveClosureCSR(ca)
				if err != nil {
					t.Fatal(err)
				}
				if got := expandProduct(pc, 0, 1); !reflect.DeepEqual(got, closure) {
					t.Error("TransitiveClosureCSR differs from TransitiveClosure")
				}
				if name == "negative" {
					return // the CSR and small-weight APSPs need nonnegative weights
				}
				cw, err := cc.CSRFromMat(rowsOf(g), cc.Inf)
				if err != nil {
					t.Fatal(err)
				}
				pd, _, err := s.APSPCSR(cw)
				if err != nil {
					t.Fatal(err)
				}
				checkDist(t, "APSPCSR", expandProduct(pd, cc.Inf, 0), want)
				// Each small-weight product ships 2M+1 words per entry, M up
				// to twice the weighted diameter: keep it to short diameters.
				if diam, _ := graphs.DiameterOf(want); diam <= 16 {
					sw, _, err := s.APSPSmallWeights(g)
					if err != nil {
						t.Fatal(err)
					}
					checkDist(t, "APSPSmallWeights", sw.Dist, want)
				}
			})
		}
	}

	t.Run("negative-cycle", func(t *testing.T) {
		for _, n := range []int{16, 64} {
			g := fixedPointGraphs(n)["negative"]
			g.SetEdge(0, 1, -1)
			g.SetEdge(1, 0, -1)
			if _, _, err := openSession(t, n).APSP(g); err == nil || !strings.Contains(err.Error(), "negative cycle") {
				t.Errorf("n=%d: APSP on a negative cycle returned %v, want the negative-cycle error", n, err)
			}
		}
	})
}

func rowsOf(g *cc.Weighted) cc.Mat {
	out := make(cc.Mat, g.N())
	for u := range out {
		out[u] = make([]int64, g.N())
		for v := range out[u] {
			out[u][v] = g.Weight(u, v)
		}
	}
	return out
}

func checkDist(t *testing.T, op string, got cc.Mat, want *matrix.Dense[int64]) {
	t.Helper()
	for u := range got {
		for v := range got[u] {
			if got[u][v] != want.At(u, v) {
				t.Fatalf("%s: d(%d,%d) = %d, want %d", op, u, v, got[u][v], want.At(u, v))
			}
		}
	}
}

// TestAPSPNegativeWeightsChargeFullWidth pins what APSP charges on the
// negatively weighted graphs of fixedPointGraphs, where no entry bound
// holds and every product runs at full width. At n = 64 and 144 the loop
// stops at its fixed point, which has no negative diagonal entry, so the
// max-weight round takes the place of the negative-cycle round and the
// ledger is exactly the one full-width APSP charged before packing, with
// its 3D exchanges on the König assignment wherever that beats the stripe
// (153 rounds, 510 040 words and 291 rounds, 3 343 892 words on the
// stripe alone). At n = 16 the loop runs to its cap and the negative-cycle
// round still follows it, so the max-weight round is one round and n(n−1)
// words on top of the full-width loop's 96 rounds and 14 636 words (100
// and 14 640 on the stripe alone).
func TestAPSPNegativeWeightsChargeFullWidth(t *testing.T) {
	for _, tc := range []struct {
		n             int
		rounds, words int64
	}{{16, 97, 14876}, {64, 133, 509772}, {144, 266, 3343602}} {
		g := fixedPointGraphs(tc.n)["negative"]
		want, err := graphs.FloydWarshall(g)
		if err != nil {
			t.Fatal(err)
		}
		res, st, err := openSession(t, tc.n).APSP(g)
		if err != nil {
			t.Fatal(err)
		}
		checkDist(t, "APSP", res.Dist, want)
		if err := cc.ValidateRouting(g, res); err != nil {
			t.Error(err)
		}
		if st.Rounds != tc.rounds || st.Words != tc.words {
			t.Errorf("n=%d: APSP charged %d rounds and %d words, want %d and %d", tc.n, st.Rounds, st.Words, tc.rounds, tc.words)
		}
	}
}
