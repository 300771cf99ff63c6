package ccmm_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// TestWorkerCountDoesNotAffectResults pins the parallel-execution
// contract: node-local computation runs on a worker pool, but results and
// accounting are identical for any pool size.
func TestWorkerCountDoesNotAffectResults(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 7))
	r := ring.Int64{}
	n := 64
	a, b := randIntMat(rng, n, 50), randIntMat(rng, n, 50)

	type outcome struct {
		product *matrix.Dense[int64]
		stats   clique.Stats
	}
	run := func(workers int, fast bool) outcome {
		net := clique.New(n, clique.WithWorkers(workers))
		var p *ccmm.RowMat[int64]
		var err error
		if fast {
			p, err = ccmm.FastBilinear[int64](net, nil, r, r, nil, ccmm.Distribute(a), ccmm.Distribute(b))
		} else {
			p, err = ccmm.Semiring3D[int64](net, nil, r, r, ccmm.Distribute(a), ccmm.Distribute(b))
		}
		if err != nil {
			t.Fatal(err)
		}
		return outcome{product: p.Collect(), stats: net.Stats()}
	}
	for _, fast := range []bool{false, true} {
		base := run(1, fast)
		for _, workers := range []int{2, 8, 32} {
			got := run(workers, fast)
			if !matrix.Equal[int64](r, base.product, got.product) {
				t.Fatalf("fast=%v workers=%d: product differs from sequential run", fast, workers)
			}
			if !reflect.DeepEqual(base.stats, got.stats) {
				t.Fatalf("fast=%v workers=%d: accounting differs: %+v vs %+v",
					fast, workers, base.stats, got.stats)
			}
		}
	}
}

// TestSemiring3DPaddedDeterminism pins determinism of the padded (non-cube)
// layout: the same seed yields an identical product and identical Stats —
// rounds, words, and per-phase breakdown — run after run and across worker
// pool sizes.
func TestSemiring3DPaddedDeterminism(t *testing.T) {
	mp := ring.MinPlus{}
	for _, n := range []int{28, 60} {
		run := func(workers int) (*matrix.Dense[int64], clique.Stats) {
			rng := rand.New(rand.NewPCG(42, uint64(n)))
			a, b := randMinPlusMat(rng, n), randMinPlusMat(rng, n)
			net := clique.New(n, clique.WithWorkers(workers))
			p, err := ccmm.Semiring3D[int64](net, nil, mp, mp, ccmm.Distribute(a), ccmm.Distribute(b))
			if err != nil {
				t.Fatal(err)
			}
			return p.Collect(), net.Stats()
		}
		baseP, baseS := run(1)
		for _, workers := range []int{1, 4, 16} {
			p, s := run(workers)
			if !matrix.Equal[int64](mp, baseP, p) {
				t.Fatalf("n=%d workers=%d: product not deterministic", n, workers)
			}
			if !reflect.DeepEqual(baseS, s) {
				t.Fatalf("n=%d workers=%d: stats not deterministic: %+v vs %+v", n, workers, baseS, s)
			}
		}
	}
}
