package algclique_test

import (
	"math/rand/v2"
	"testing"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/ring"
)

func TestTransitiveClosure(t *testing.T) {
	g := cc.NewGraph(10, true)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(5, 6)
	reach, _, err := openSession(t, g.N()).TransitiveClosure(g)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		u, v int
		want int64
	}{
		{0, 3, 1}, {0, 0, 1}, {3, 0, 0}, {0, 5, 0}, {5, 6, 1}, {6, 5, 0}, {9, 9, 1},
	}
	for _, tc := range cases {
		if reach[tc.u][tc.v] != tc.want {
			t.Errorf("reach(%d,%d) = %d, want %d", tc.u, tc.v, reach[tc.u][tc.v], tc.want)
		}
	}
}

func TestTransitiveClosureMatchesBFS(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	for trial := 0; trial < 5; trial++ {
		n := 10 + rng.IntN(20)
		g := cc.GNP(n, 0.08, true, rng.Uint64())
		reach, _, err := openSession(t, n).TransitiveClosure(g)
		if err != nil {
			t.Fatal(err)
		}
		bfs := graphs.BFSAllPairs(g)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				want := int64(0)
				if !ring.IsInf(bfs.At(u, v)) {
					want = 1
				}
				if reach[u][v] != want {
					t.Fatalf("n=%d: reach(%d,%d) = %d, want %d", n, u, v, reach[u][v], want)
				}
			}
		}
	}
}

func TestDiameter(t *testing.T) {
	diam, connected, _, err := openSession(t, 10).Diameter(cc.Path(10, false))
	if err != nil || !connected || diam != 9 {
		t.Errorf("path: diam=%d connected=%v err=%v, want (9,true)", diam, connected, err)
	}
	diam, connected, _, err = openSession(t, 10).Diameter(cc.Petersen())
	if err != nil || !connected || diam != 2 {
		t.Errorf("petersen: diam=%d connected=%v, want (2,true)", diam, connected)
	}
	g := cc.NewGraph(8, false)
	g.AddEdge(0, 1)
	g.AddEdge(3, 4)
	diam, connected, _, err = openSession(t, g.N()).Diameter(g)
	if err != nil || connected || diam != 1 {
		t.Errorf("disconnected: diam=%d connected=%v, want (1,false)", diam, connected)
	}
}

func TestMatMulBroadcastSeparation(t *testing.T) {
	// Corollary 24 demonstration: the broadcast clique needs Θ(n) rounds
	// where the unicast clique needs O(n^{1/3}).
	rng := rand.New(rand.NewPCG(8, 8))
	n := 64
	a := randMat(rng, n, 10)
	b := randMat(rng, n, 10)
	pb, sb, err := openSession(t, n).MatMulBroadcast(a, b)
	if err != nil {
		t.Fatal(err)
	}
	pu, su, err := openSession(t, n, cc.WithEngine(cc.Semiring3D)).MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if pb[i][j] != pu[i][j] {
				t.Fatalf("broadcast product wrong at (%d,%d)", i, j)
			}
		}
	}
	if sb.Rounds != int64(2*n) {
		t.Errorf("broadcast matmul = %d rounds, want 2n = %d", sb.Rounds, 2*n)
	}
	if su.Rounds >= sb.Rounds {
		t.Errorf("unicast (%d rounds) should beat broadcast (%d rounds) at n=%d",
			su.Rounds, sb.Rounds, n)
	}
}
