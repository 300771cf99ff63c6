package algclique_test

import (
	"math/rand/v2"
	"testing"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// TestIntegrationSweep runs every public algorithm on a stream of random
// instances of awkward (non-square, non-cube) sizes and cross-validates
// against the centralised references — the end-to-end contract of the
// library: pad, simulate, translate back, agree with ground truth.
func TestIntegrationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep is slow")
	}
	rng := rand.New(rand.NewPCG(2025, 6))
	for trial := 0; trial < 8; trial++ {
		n := 8 + rng.IntN(25)
		p := 0.1 + rng.Float64()*0.3
		seed := rng.Uint64()
		g := cc.GNP(n, p, false, seed)
		t.Logf("trial %d: n=%d p=%.2f", trial, n, p)
		s := openSession(t, n)

		tri, _, err := s.CountTriangles(g)
		if err != nil {
			t.Fatal(err)
		}
		if want := graphs.CountTrianglesRef(g); tri != want {
			t.Fatalf("triangles %d != %d", tri, want)
		}

		c4, _, err := s.CountFourCycles(g)
		if err != nil {
			t.Fatal(err)
		}
		if want := graphs.CountC4Ref(g); c4 != want {
			t.Fatalf("C4s %d != %d", c4, want)
		}

		c5, _, err := s.CountFiveCycles(g)
		if err != nil {
			t.Fatal(err)
		}
		if want := graphs.CountC5Ref(g); c5 != want {
			t.Fatalf("C5s %d != %d", c5, want)
		}

		c6, _, err := s.CountSixCycles(g)
		if err != nil {
			t.Fatal(err)
		}
		if want := graphs.CountC6Ref(g); c6 != want {
			t.Fatalf("C6s %d != %d", c6, want)
		}

		has4, _, err := s.DetectFourCycle(g)
		if err != nil {
			t.Fatal(err)
		}
		if want := graphs.HasC4Ref(g); has4 != want {
			t.Fatalf("DetectFourCycle %v != %v", has4, want)
		}

		dolev, _, err := s.CountTrianglesDolev(g)
		if err != nil {
			t.Fatal(err)
		}
		if dolev != tri {
			t.Fatalf("Dolev %d != algebraic %d", dolev, tri)
		}

		res, _, err := s.APSPUnweighted(g)
		if err != nil {
			t.Fatal(err)
		}
		bfs := graphs.BFSAllPairs(g)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if res.Dist[u][v] != bfs.At(u, v) {
					t.Fatalf("Seidel d(%d,%d) = %d != %d", u, v, res.Dist[u][v], bfs.At(u, v))
				}
			}
		}

		w := cc.RandomConnectedWeighted(n, p, 1+rng.Int64N(15), true, seed)
		fw, err := graphs.FloydWarshall(w)
		if err != nil {
			t.Fatal(err)
		}
		exact, _, err := s.APSP(w)
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if exact.Dist[u][v] != fw.At(u, v) {
					t.Fatalf("APSP d(%d,%d) = %d != %d", u, v, exact.Dist[u][v], fw.At(u, v))
				}
			}
		}
		if err := cc.ValidateRouting(w, exact); err != nil {
			t.Fatal(err)
		}

		girth, ok, _, err := s.Girth(g, cc.WithColourings(120), cc.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		wantG, wantOK := graphs.GirthRef(g)
		if ok != wantOK || (ok && girth != wantG) {
			t.Fatalf("girth (%d,%v) != (%d,%v)", girth, ok, wantG, wantOK)
		}
	}
}

// TestIntegrationInfSentinelsStable pins the public sentinel values: they
// are part of the API contract (callers compare against them).
func TestIntegrationInfSentinelsStable(t *testing.T) {
	if cc.Inf != ring.Inf || cc.NoHop != ring.NoWitness {
		t.Fatal("public sentinels diverged from internal ones")
	}
	if !cc.IsInf(cc.Inf) || cc.IsInf(0) || cc.IsInf(1<<40) {
		t.Fatal("IsInf misclassifies")
	}
}

// TestIntegrationDisconnectedWeighted checks Inf propagation through the
// public APSP paths on a disconnected weighted graph.
func TestIntegrationDisconnectedWeighted(t *testing.T) {
	g := cc.NewWeighted(12, true)
	g.SetEdge(0, 1, 3)
	g.SetEdge(1, 2, 4)
	g.SetEdge(5, 6, 1)
	res, _, err := openSession(t, g.N()).APSP(g)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dist[0][2] != 7 || !cc.IsInf(res.Dist[0][5]) || !cc.IsInf(res.Dist[2][0]) {
		t.Fatalf("disconnected distances wrong: %v", res.Dist[0])
	}
	if res.Path(0, 5) != nil {
		t.Error("path across components should be nil")
	}
	if p := res.Path(0, 2); len(p) != 3 || p[0] != 0 || p[2] != 2 {
		t.Errorf("path 0→2 = %v", p)
	}
}
