package subgraph_test

import (
	"errors"
	"math/rand/v2"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
	"github.com/algebraic-clique/algclique/internal/subgraph"
)

func TestSparseSquareMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 61))
	r := ring.Int64{}
	for trial := 0; trial < 15; trial++ {
		n := 8 + rng.IntN(48)
		g := graphs.GNP(n, 2.5/float64(n), false, rng.Uint64())
		net := clique.New(n)
		sq, err := subgraph.SparseSquareScratch(net, nil, g)
		if errors.Is(err, subgraph.ErrTooDense) {
			continue // unlucky draw; covered by the dedicated test below
		}
		if err != nil {
			t.Fatal(err)
		}
		a := g.AdjacencyInt()
		want := matrix.Mul[int64](r, a, a)
		if !matrix.Equal[int64](r, sq.Collect(), want) {
			t.Fatalf("n=%d: sparse square disagrees with A²", n)
		}
	}
}

func TestSparseSquareConstantRounds(t *testing.T) {
	var maxRounds int64
	for _, n := range []int{16, 64, 256} {
		g := graphs.GNP(n, 2.0/float64(n), false, 3)
		net := clique.New(n)
		if _, err := subgraph.SparseSquareScratch(net, nil, g); err != nil {
			t.Fatal(err)
		}
		if net.Rounds() > maxRounds {
			maxRounds = net.Rounds()
		}
	}
	if maxRounds > 250 {
		t.Errorf("sparse square used %d rounds; expected n-independent constant", maxRounds)
	}
}

func TestSparseSquareRejectsDense(t *testing.T) {
	g := graphs.Complete(16, false)
	net := clique.New(16)
	_, err := subgraph.SparseSquareScratch(net, nil, g)
	if !errors.Is(err, subgraph.ErrTooDense) {
		t.Fatalf("err = %v, want ErrTooDense", err)
	}
}

func TestSparseSquareRejectsMisuse(t *testing.T) {
	if _, err := subgraph.SparseSquareScratch(clique.New(16), nil, graphs.Cycle(16, true)); err == nil {
		t.Error("directed graph accepted")
	}
	if _, err := subgraph.SparseSquareScratch(clique.New(4), nil, graphs.Cycle(4, false)); !errors.Is(err, ccmm.ErrSize) {
		t.Error("tiny clique accepted")
	}
}
