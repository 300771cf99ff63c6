package ccmm_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/algebraic-clique/algclique/internal/bilinear"
	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// Ablation: DESIGN.md's scheme-selection rule (maximise block dimension d,
// tie-break on fewer multiplications) against the alternatives that also
// fit a 64-node clique. Rounds scale ~3n/d² + O(1): d = 4 schemes should
// beat d = 2 regardless of m.
func BenchmarkSchemeAblation(b *testing.B) {
	r := ring.Int64{}
	rng := rand.New(rand.NewPCG(1, 1))
	const n = 64
	a, c := randIntMat(rng, n, 50), randIntMat(rng, n, 50)
	schemes := []*bilinear.Scheme{
		bilinear.Strassen(),       // d=2, m=7
		bilinear.Classical(2),     // d=2, m=8
		bilinear.StrassenPower(2), // d=4, m=49 (Pick's choice)
		bilinear.Tensor(bilinear.Strassen(), bilinear.Classical(2)), // d=4, m=56
		bilinear.Classical(4), // d=4, m=64
	}
	for _, s := range schemes {
		b.Run(fmt.Sprintf("%s-d%d-m%d", s.Name(), s.D, s.M), func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				net := clique.New(n)
				if _, err := ccmm.FastBilinear[int64](net, nil, r, r, s, ccmm.Distribute(a), ccmm.Distribute(c)); err != nil {
					b.Fatal(err)
				}
				rounds = net.Rounds()
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// Ablation: in-band witnesses double the element width of the semiring
// product (value + witness) — the price of routing tables.
func BenchmarkWitnessOverhead(b *testing.B) {
	rng := rand.New(rand.NewPCG(2, 2))
	const n = 64
	a, c := randMinPlusMat(rng, n), randMinPlusMat(rng, n)
	mp := ring.MinPlus{}
	b.Run("plain", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			net := clique.New(n)
			if _, err := ccmm.Semiring3D[int64](net, nil, mp, mp, ccmm.Distribute(a), ccmm.Distribute(c)); err != nil {
				b.Fatal(err)
			}
			rounds = net.Rounds()
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("witnesses", func(b *testing.B) {
		var rounds int64
		for i := 0; i < b.N; i++ {
			net := clique.New(n)
			if _, _, err := ccmm.DistanceProduct3D(net, nil, ccmm.Distribute(a), ccmm.Distribute(c), -1); err != nil {
				b.Fatal(err)
			}
			rounds = net.Rounds()
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// Ablation: engines on the same product (n = 64 supports all three).
func BenchmarkEngineAblation(b *testing.B) {
	r := ring.Int64{}
	rng := rand.New(rand.NewPCG(3, 3))
	const n = 64
	a, c := randIntMat(rng, n, 50), randIntMat(rng, n, 50)
	for _, e := range []ccmm.Engine{ccmm.EngineFast, ccmm.Engine3D, ccmm.EngineNaive} {
		b.Run(e.String(), func(b *testing.B) {
			var rounds int64
			for i := 0; i < b.N; i++ {
				net := clique.New(n)
				if _, err := ccmm.MulRingWith[int64](net, e, nil, r, r, ccmm.Distribute(a), ccmm.Distribute(c)); err != nil {
					b.Fatal(err)
				}
				rounds = net.Rounds()
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}
