package ccmm_test

import (
	"errors"
	"math/rand/v2"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// TestRoundBudgetAbortsRunawayAlgorithm injects a round budget below what
// the 3D algorithm needs and checks the typed abort surfaces as an
// ordinary error return — the abort still travels as a panic inside the
// engine's schedule, but the entry point converts it, so callers never
// need a recover dance.
func TestRoundBudgetAbortsRunawayAlgorithm(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	r := ring.Int64{}
	n := 27
	a, b := randIntMat(rng, n, 10), randIntMat(rng, n, 10)
	net := clique.New(n, clique.WithRoundLimit(5)) // 3D needs ~20 here

	_, err := ccmm.Semiring3D[int64](net, nil, r, r, ccmm.Distribute(a), ccmm.Distribute(b))
	if err == nil {
		t.Fatal("expected a round-limit error")
	}
	var lim *clique.RoundLimitError
	if !errors.As(err, &lim) {
		t.Fatalf("err = %v (%T), want *RoundLimitError", err, err)
	}
	if lim.Limit != 5 || lim.Rounds <= 5 {
		t.Errorf("unexpected limit error: %+v", lim)
	}
}

// TestRoundBudgetPermitsCompliantAlgorithm pins the complement: a generous
// budget lets the same computation finish.
func TestRoundBudgetPermitsCompliantAlgorithm(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 2))
	r := ring.Int64{}
	n := 27
	a, b := randIntMat(rng, n, 10), randIntMat(rng, n, 10)
	net := clique.New(n, clique.WithRoundLimit(500))
	if _, err := ccmm.Semiring3D[int64](net, nil, r, r, ccmm.Distribute(a), ccmm.Distribute(b)); err != nil {
		t.Fatal(err)
	}
}
