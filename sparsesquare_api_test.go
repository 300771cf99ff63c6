package algclique_test

import (
	"errors"
	"testing"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/subgraph"
)

func TestSquareAdjacencySparseAPI(t *testing.T) {
	g := cc.GNP(40, 0.05, false, 5)
	s := openSession(t, g.N())
	sq, stats, err := s.SquareAdjacencySparse(g)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-check against the algebraic square of the adjacency matrix.
	n := g.N()
	a := make([][]int64, n)
	for v := 0; v < n; v++ {
		a[v] = make([]int64, n)
		for _, u := range g.Neighbors(v) {
			a[v][u] = 1
		}
	}
	want, _, err := s.MatMul(a, a)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if sq[u][v] != want[u][v] {
				t.Fatalf("A²(%d,%d) = %d, want %d", u, v, sq[u][v], want[u][v])
			}
		}
	}
	if stats.Rounds > 250 {
		t.Errorf("sparse square used %d rounds", stats.Rounds)
	}

	// Dense graphs must report ErrTooDense (wrapped).
	if _, _, err := openSession(t, 20).SquareAdjacencySparse(cc.Complete(20, false)); !errors.Is(err, subgraph.ErrTooDense) {
		t.Errorf("dense graph err = %v, want ErrTooDense", err)
	}

	// Tiny graphs are padded to the packing threshold.
	small := cc.Path(5, false)
	sq, stats, err = openSession(t, 5).SquareAdjacencySparse(small)
	if err != nil {
		t.Fatal(err)
	}
	if len(sq) != 5 || sq[0][2] != 1 || sq[0][1] != 0 {
		t.Errorf("padded small square wrong: %v", sq)
	}
	if stats.PaddedFrom != 5 {
		t.Errorf("padding not reported: %+v", stats)
	}
}
