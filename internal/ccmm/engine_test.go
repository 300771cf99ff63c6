package ccmm_test

import (
	"math/rand/v2"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// TestResolveNeverNaiveForLargeCliques is the regression test for the
// silent perf cliff the cube layout for any n removes: before it, EngineAuto
// resolved every product on a non-cube clique with no bilinear scheme to
// the O(n)-round NaiveGather. Now Semiring3D covers every size, so Auto
// falls back to Naive only below n = 8.
func TestResolveNeverNaiveForLargeCliques(t *testing.T) {
	// Min-plus products: Engine3D for every n ≥ 8, cube or not.
	for n := 8; n <= 130; n++ {
		if got := ccmm.EngineAuto.Resolve(n, false); got != ccmm.Engine3D {
			t.Fatalf("Resolve(%d, false) = %v, want Engine3D", n, got)
		}
	}
	// Ring products on sizes with no bilinear scheme (non-square or
	// odd-root square): must resolve to Engine3D, never EngineNaive.
	for _, n := range []int{8, 10, 20, 25, 27, 60, 125, 200} {
		if got := ccmm.EngineAuto.Resolve(n, true); got != ccmm.Engine3D {
			t.Fatalf("Resolve(%d, true) = %v, want Engine3D (no scheme fits)", n, got)
		}
	}
	// Scheme-compatible sizes still prefer the bilinear engine.
	for _, n := range []int{16, 64, 100, 256} {
		if got := ccmm.EngineAuto.Resolve(n, true); got != ccmm.EngineFast {
			t.Fatalf("Resolve(%d, true) = %v, want EngineFast", n, got)
		}
	}
	// Tiny cliques keep the gather baseline (except the trivial cube).
	if got := ccmm.EngineAuto.Resolve(1, false); got != ccmm.Engine3D {
		t.Errorf("Resolve(1, false) = %v, want Engine3D", got)
	}
	for n := 2; n < 8; n++ {
		if got := ccmm.EngineAuto.Resolve(n, false); got != ccmm.EngineNaive {
			t.Errorf("Resolve(%d, false) = %v, want EngineNaive", n, got)
		}
	}
	// Forced engines resolve to themselves.
	for _, e := range []ccmm.Engine{ccmm.EngineFast, ccmm.Engine3D, ccmm.EngineNaive} {
		if got := e.Resolve(60, false); got != e {
			t.Errorf("%v.Resolve = %v, want identity", e, got)
		}
	}
}

// TestMulMinPlusAutoBeatsNaiveOnNonCubes is the acceptance criterion of the
// generalised layout: on non-cube cliques EngineAuto now runs the 3D
// algorithm, producing results identical to NaiveGather while charging
// strictly fewer rounds.
func TestMulMinPlusAutoBeatsNaiveOnNonCubes(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 1))
	mp := ring.MinPlus{}
	for _, n := range []int{60, 100} {
		a, b := randMinPlusMat(rng, n), randMinPlusMat(rng, n)
		auto := clique.New(n)
		pAuto, err := ccmm.MulMinPlusWith(auto, ccmm.EngineAuto, nil, ccmm.Distribute(a), ccmm.Distribute(b))
		if err != nil {
			t.Fatalf("n=%d auto: %v", n, err)
		}
		naive := clique.New(n)
		pNaive, err := ccmm.MulMinPlusWith(naive, ccmm.EngineNaive, nil, ccmm.Distribute(a), ccmm.Distribute(b))
		if err != nil {
			t.Fatalf("n=%d naive: %v", n, err)
		}
		if !matrix.Equal[int64](mp, pAuto.Collect(), pNaive.Collect()) {
			t.Fatalf("n=%d: auto and naive products disagree", n)
		}
		if auto.Rounds() >= naive.Rounds() {
			t.Errorf("n=%d: auto (%d rounds) not cheaper than naive (%d rounds)",
				n, auto.Rounds(), naive.Rounds())
		}
	}
}

// TestMulRingAutoOnSchemelessSizes pins the same cliff removal for ring
// products: a non-cube size with no bilinear scheme must run the 3D
// algorithm (and agree with the naive baseline).
func TestMulRingAutoOnSchemelessSizes(t *testing.T) {
	rng := rand.New(rand.NewPCG(32, 1))
	r := ring.Int64{}
	for _, n := range []int{20, 60} {
		a, b := randIntMat(rng, n, 20), randIntMat(rng, n, 20)
		net := clique.New(n)
		p, err := ccmm.MulIntWith(net, ccmm.EngineAuto, nil, ccmm.Distribute(a), ccmm.Distribute(b), -1)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !matrix.Equal[int64](r, p.Collect(), matrix.Mul[int64](r, a, b)) {
			t.Fatalf("n=%d: auto ring product wrong", n)
		}
		if n >= 60 {
			naive := clique.New(n)
			if _, err := ccmm.MulIntWith(naive, ccmm.EngineNaive, nil, ccmm.Distribute(a), ccmm.Distribute(b), -1); err != nil {
				t.Fatal(err)
			}
			if net.Rounds() >= naive.Rounds() {
				t.Errorf("n=%d: auto (%d rounds) not cheaper than naive (%d rounds)",
					n, net.Rounds(), naive.Rounds())
			}
		}
	}
}
