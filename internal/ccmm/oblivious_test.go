package ccmm_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// TestMatMulIsOblivious checks the §2 claim that both multiplication
// algorithms are oblivious: the communication pattern (rounds and words,
// per phase) is fixed by the clique size — only message contents depend on
// the input matrices.
func TestMatMulIsOblivious(t *testing.T) {
	r := ring.Int64{}
	run3D := func(n int, seed uint64) []clique.PhaseStat {
		rng := rand.New(rand.NewPCG(seed, 0))
		a, b := randIntMat(rng, n, 50), randIntMat(rng, n, 50)
		net := clique.New(n)
		if _, err := ccmm.Semiring3D[int64](net, nil, r, r, ccmm.Distribute(a), ccmm.Distribute(b)); err != nil {
			t.Fatal(err)
		}
		return net.Stats().Phases
	}
	// Both the exact-cube and the padded (non-cube) layouts must be
	// oblivious.
	for _, n := range []int{27, 28} {
		if !reflect.DeepEqual(run3D(n, 1), run3D(n, 999)) {
			t.Errorf("n=%d: semiring 3D communication pattern depends on matrix values", n)
		}
	}

	runFast := func(seed uint64, sparse bool) []clique.PhaseStat {
		rng := rand.New(rand.NewPCG(seed, 0))
		n := 64
		a, b := randIntMat(rng, n, 50), randIntMat(rng, n, 50)
		if sparse {
			// Zero out most entries: an oblivious algorithm must not care.
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if (i+j)%5 != 0 {
						a.Set(i, j, 0)
						b.Set(i, j, 0)
					}
				}
			}
		}
		net := clique.New(n)
		if _, err := ccmm.FastBilinear[int64](net, nil, r, r, nil, ccmm.Distribute(a), ccmm.Distribute(b)); err != nil {
			t.Fatal(err)
		}
		return net.Stats().Phases
	}
	dense := runFast(2, false)
	sparse := runFast(3, true)
	if !reflect.DeepEqual(dense, sparse) {
		t.Error("fast bilinear communication pattern depends on matrix values")
	}
}
