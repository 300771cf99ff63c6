package algclique_test

import (
	"fmt"
	"testing"

	cc "github.com/algebraic-clique/algclique"
)

// Allocation-tracking benchmarks for the session hot path. Each benchmark
// runs repeated products on one session, so allocs/op measures the
// steady-state per-operation cost the scratch pools are meant to amortise
// away; TestWarmGraphOpAllocs holds the same figures to a budget.

// BenchmarkSessionDistanceProduct measures a repeated min-plus product on a
// reused session (the shape of every iterated-squaring APSP pipeline).
func BenchmarkSessionDistanceProduct(b *testing.B) {
	for _, n := range []int{27, 64, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := randSquare(n, 61)
			c := randSquare(n, 62)
			s, err := cc.NewClique(n)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.DistanceProduct(a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionMatMul measures a repeated integer product on a reused
// session (fast bilinear engine at these sizes).
func BenchmarkSessionMatMul(b *testing.B) {
	for _, n := range []int{27, 64, 100} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			a := randSquare(n, 63)
			c := randSquare(n, 64)
			s, err := cc.NewClique(n)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.MatMul(a, c); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionAPSP measures the full witness-carrying APSP pipeline —
// ⌈log n⌉ witnessed distance products per op — on a reused
// session.
func BenchmarkSessionAPSP(b *testing.B) {
	for _, n := range []int{27, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			g := cc.RandomConnectedWeighted(n, 0.2, 50, true, 65)
			s, err := cc.NewClique(n)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := s.APSP(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSessionGraphOps measures the nine graph_pipeline operations at
// the yardstick's size on a reused session: chains of products on the
// network's one working set, so allocs/op is each reduction's answer and
// per-call vectors (TestWarmGraphOpAllocs holds the budgets).
func BenchmarkSessionGraphOps(b *testing.B) {
	const n = 144
	for _, op := range graphPipelineOps(n, 1) {
		b.Run(op.name, func(b *testing.B) {
			s, err := cc.NewClique(n)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if _, _, err := op.run(s); err != nil { // the cold call builds the working set
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := op.run(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
