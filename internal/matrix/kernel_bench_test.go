package matrix

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ring"
)

// Local-kernel microbenchmarks: each fast kernel beside its reference
// twin, for measuring while working on one. Nothing gates their ratios —
// one box read the same kernels at 1.07× and at 1.40× — and the figures
// tracked from PR to PR are the yardstick's matrix.ns_per_madd.* rates and
// its dense_products workload (bench/).

func benchBoolDense(n int, p float64, seed uint64) *Dense[int64] {
	return randBoolDense(rand.New(rand.NewPCG(seed, uint64(n))), n, n, p)
}

func randMinPlusDense(n int, seed uint64) *Dense[int64] {
	rng := rand.New(rand.NewPCG(seed, uint64(n)))
	m := New[int64](n, n)
	for i := range m.e {
		if rng.IntN(8) == 0 {
			m.e[i] = ring.Inf
		} else {
			m.e[i] = rng.Int64N(1000)
		}
	}
	return m
}

func BenchmarkMulBool(b *testing.B) {
	for _, n := range []int{256, 512} {
		a, c := benchBoolDense(n, 0.05, 81), benchBoolDense(n, 0.05, 82)
		out := New[int64](n, n)
		b.Run(fmt.Sprintf("packed/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulBoolInto(out, a, c)
			}
		})
		b.Run(fmt.Sprintf("scalar/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulBoolScalarInto(out, a, c)
			}
		})
	}
}

func BenchmarkMulMinPlus(b *testing.B) {
	for _, n := range []int{256, 512} {
		a, c := randMinPlusDense(n, 83), randMinPlusDense(n, 84)
		out := New[int64](n, n)
		b.Run(fmt.Sprintf("unrolled/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulMinPlusInto(out, a, c)
			}
		})
		b.Run(fmt.Sprintf("reference/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulMinPlusRefInto(out, a, c)
			}
		})
	}
}

func BenchmarkMulMinPlusW(b *testing.B) {
	for _, n := range []int{256} {
		rng := rand.New(rand.NewPCG(85, uint64(n)))
		mk := func() *Dense[ring.ValW] {
			m := New[ring.ValW](n, n)
			for i := range m.e {
				if rng.IntN(8) == 0 {
					m.e[i] = ring.ValW{V: ring.Inf, W: ring.NoWitness}
				} else {
					m.e[i] = ring.ValW{V: rng.Int64N(1000), W: rng.Int64N(int64(n))}
				}
			}
			return m
		}
		a, c := mk(), mk()
		out := New[ring.ValW](n, n)
		b.Run(fmt.Sprintf("unrolled/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulMinPlusWInto(out, a, c)
			}
		})
		b.Run(fmt.Sprintf("reference/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				MulMinPlusWRefInto(out, a, c)
			}
		})
	}
}

func BenchmarkParStrassen(b *testing.B) {
	n := 512
	rng := rand.New(rand.NewPCG(86, uint64(n)))
	mk := func() *Dense[int64] {
		m := New[int64](n, n)
		for i := range m.e {
			m.e[i] = rng.Int64N(64)
		}
		return m
	}
	a, c := mk(), mk()
	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Strassen[int64](ring.Int64{}, a, c, 0)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		w := newTestWorkers()
		defer w.close()
		for i := 0; i < b.N; i++ {
			ParStrassen[int64](w, ring.Int64{}, a, c, 0)
		}
	})
}
