package main

import (
	"math"
	"math/rand/v2"

	cc "github.com/algebraic-clique/algclique"
)

// scale fixes the instance sizes. Op keys keep the full-scale sizes in
// their names (matmul_256, square_csr_2000_d2, …) because later issues
// refer to them; the toy scale exists only so `go test` can drive every
// code path of the harness in seconds.
type scale struct {
	dense     int // dense_products and wire_products clique size
	graph     int // graph_pipeline clique size
	csrSmall  int // dense-mailbox CSR size (below the simulator's 4096 sparse-link floor)
	csrLarge  int // sparse-link CSR size at full scale
	setupReps int // upper bound on repeated set-ups per run
}

var fullScale = scale{dense: 256, graph: 144, csrSmall: 2000, csrLarge: 10000, setupReps: 7}

var toyScale = scale{dense: 16, graph: 16, csrSmall: 64, csrLarge: 128, setupReps: 2}

// newRNG derives one generator per (seed, stream), so adding an input to
// one workload never shifts another's.
func newRNG(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15^stream))
}

// randMat draws an n×n matrix with entries uniform in [lo, hi).
func randMat(rng *rand.Rand, n int, lo, hi int64) cc.Mat {
	m := make(cc.Mat, n)
	for i := range m {
		m[i] = make([]int64, n)
		for j := range m[i] {
			m[i][j] = lo + rng.Int64N(hi-lo)
		}
	}
	return m
}

// randWeights draws a min-plus operand: each entry is finite, uniform in
// [0, maxW), with probability p and cc.Inf otherwise.
func randWeights(rng *rand.Rand, n int, p float64, maxW int64) cc.Mat {
	m := make(cc.Mat, n)
	for i := range m {
		m[i] = make([]int64, n)
		for j := range m[i] {
			if rng.Float64() < p {
				m[i][j] = rng.Int64N(maxW)
			} else {
				m[i][j] = cc.Inf
			}
		}
	}
	return m
}

// randAdjacency draws the symmetric loop-free 0/1 adjacency matrix of an
// undirected GNP(n, p) graph.
func randAdjacency(rng *rand.Rand, n int, p float64) cc.Mat {
	m := make(cc.Mat, n)
	for i := range m {
		m[i] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.Float64() < p {
				m[i][j], m[j][i] = 1, 1
			}
		}
	}
	return m
}

// graphOf builds the undirected simple graph of a symmetric adjacency
// matrix.
func graphOf(a cc.Mat) *cc.Graph {
	g := cc.NewGraph(len(a), false)
	for i := range a {
		for j := i + 1; j < len(a); j++ {
			if a[i][j] != 0 {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// weightedOf builds the directed weighted graph of a weight matrix (Inf =
// no edge, diagonal ignored).
func weightedOf(a cc.Mat) *cc.Weighted {
	g := cc.NewWeighted(len(a), true)
	for i := range a {
		for j := range a[i] {
			if i != j && !cc.IsInf(a[i][j]) {
				g.SetEdge(i, j, a[i][j])
			}
		}
	}
	return g
}

// padGraph returns g on n ≥ g.N() nodes with the extra nodes isolated.
func padGraph(g *cc.Graph, n int) *cc.Graph {
	if g.N() == n {
		return g
	}
	out := cc.NewGraph(n, g.Directed())
	for u := 0; u < g.N(); u++ {
		g.Row(u).ForEach(func(v int) {
			if g.Directed() || u < v {
				out.AddEdge(u, v)
			}
		})
	}
	return out
}

// padWeighted returns g on n ≥ g.N() nodes with the extra nodes isolated.
func padWeighted(g *cc.Weighted, n int) *cc.Weighted {
	if g.N() == n {
		return g
	}
	out := cc.NewWeighted(n, g.Directed())
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u != v && g.HasEdge(u, v) {
				out.SetEdge(u, v, g.Weight(u, v))
			}
		}
	}
	return out
}

// gnpCSR draws a directed GNP(n, avgDeg/n) adjacency straight into CSR
// form by geometric skip sampling: Θ(nnz) work and memory, never a dense
// row. Val stays nil — the adjacency encoding is structure only.
func gnpCSR(rng *rand.Rand, n int, avgDeg float64) *cc.CSR {
	m := &cc.CSR{N: n, RowPtr: make([]int64, n+1)}
	logq := math.Log1p(-avgDeg / float64(n))
	for v := 0; v < n; v++ {
		for c := -1; ; {
			// 1-Float64() is in (0, 1], so the skip is finite and ≥ 1.
			skip := 1 + math.Floor(math.Log(1-rng.Float64())/logq)
			if skip >= float64(n-c) {
				break
			}
			c += int(skip)
			m.Col = append(m.Col, int32(c))
		}
		m.RowPtr[v+1] = int64(len(m.Col))
	}
	return m
}
