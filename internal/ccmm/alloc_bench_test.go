package ccmm_test

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// Allocation-tracking benchmarks for the engine hot path: one persistent
// network (Reset between products, as sessions do) so the numbers measure
// the steady-state cost of a repeated product, not construction. allocs/op
// is the regression signal CI watches — the scratch pools and bulk codecs
// exist to drive it toward zero.

// BenchmarkSemiring3DAllocs measures the 3D engine in steady state over the
// one-word min-plus codec at cube (27, 64) and non-cube (100) sizes.
func BenchmarkSemiring3DAllocs(b *testing.B) {
	mp := ring.MinPlus{}
	for _, n := range []int{27, 64, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(9, uint64(n)))
			s, t := ccmm.Distribute(randMinPlusMat(rng, n)), ccmm.Distribute(randMinPlusMat(rng, n))
			net := clique.New(n)
			sc := ccmm.NewScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Reset()
				if _, err := ccmm.Semiring3D[int64](net, sc, mp, mp, s, t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSemiring3DWitnessAllocs measures the witnessed distance product
// through the same engine — one-word operands, value + witness partial
// products — the algebra behind every APSP squaring.
func BenchmarkSemiring3DWitnessAllocs(b *testing.B) {
	for _, n := range []int{27, 64, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(10, uint64(n)))
			s, t := ccmm.Distribute(randMinPlusMat(rng, n)), ccmm.Distribute(randMinPlusMat(rng, n))
			net := clique.New(n)
			sc := ccmm.NewScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Reset()
				if _, _, err := ccmm.DistanceProduct3D(net, sc, s, t, -1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFastBilinearAllocs measures the bilinear engine in steady state
// on scheme-compatible perfect squares (100 = 10² runs the d=2 Strassen
// scheme; 16 and 64 run the picked Strassen powers).
func BenchmarkFastBilinearAllocs(b *testing.B) {
	r := ring.Int64{}
	for _, n := range []int{16, 64, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(11, uint64(n)))
			s, t := ccmm.Distribute(randIntMat(rng, n, 50)), ccmm.Distribute(randIntMat(rng, n, 50))
			net := clique.New(n)
			sc := ccmm.NewScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Reset()
				if _, err := ccmm.FastBilinear[int64](net, sc, r, r, nil, s, t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBoolPackedRounds compares the packed and unpacked Boolean
// transports through the 3D engine: same product, ~64× fewer words and
// rounds under the bit-packed codec.
func BenchmarkBoolPackedRounds(b *testing.B) {
	br := ring.Bool{}
	for _, n := range []int{64, 512} {
		rng := rand.New(rand.NewPCG(12, uint64(n)))
		rows := make([][]int64, n)
		for i := range rows {
			rows[i] = make([]int64, n)
			for j := range rows[i] {
				rows[i][j] = int64(rng.IntN(2))
			}
		}
		s := &ccmm.RowMat[int64]{Rows: rows}
		for _, packed := range []bool{false, true} {
			name := "unpacked"
			var codec ring.BulkCodec[int64] = ring.Int64{}
			if packed {
				name = "packed"
				codec = ring.PackedBit{}
			}
			b.Run(fmt.Sprintf("%s/n=%d", name, n), func(b *testing.B) {
				net := clique.New(n)
				sc := ccmm.NewScratch()
				var rounds int64
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					net.Reset()
					if _, err := ccmm.Semiring3D[int64](net, sc, br, codec, s, s); err != nil {
						b.Fatal(err)
					}
					rounds = net.Rounds()
				}
				b.ReportMetric(float64(rounds), "rounds")
			})
		}
	}
}

// BenchmarkSparseAllocs measures the sparse tile engine in steady state on
// GNP-density integer operands: the tuple buffers, tile tables, and view
// matrices all pool through the scratch, so allocs/op must sit in the same
// range as the dense engines (the product result plus O(n) bookkeeping).
func BenchmarkSparseAllocs(b *testing.B) {
	r := ring.Int64{}
	for _, n := range []int{64, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewPCG(12, uint64(n)))
			s := sparseIntMat(rng, n, 4, 50)
			t := sparseIntMat(rng, n, 4, 50)
			net := clique.New(n)
			sc := ccmm.NewScratch()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				net.Reset()
				if _, err := ccmm.SparseMul[int64](net, sc, r, r, s, t); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
