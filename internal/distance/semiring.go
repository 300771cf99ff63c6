package distance

import (
	"fmt"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// APSPSemiring computes exact all-pairs shortest paths and routing tables
// for weighted directed graphs by iterated squaring of the weight matrix
// over the min-plus semiring (Corollary 6): at most ⌈log₂ n⌉ distance
// products on the 3D algorithm, each O(n^{1/3}) rounds on any clique size
// (the padded cube layout), witnesses riding in-band. The squaring stops at
// its fixed point (Settled: one round after every squaring but the last),
// so when every shortest path needs at most h hops it runs
// min(⌈log₂ n⌉, ⌈log₂ h⌉ + 1) products. Weights may be negative; negative
// cycles are detected and rejected.
func APSPSemiring(net *clique.Network, g *graphs.Weighted) (*Result, error) {
	if err := checkWeightedSize(net, g); err != nil {
		return nil, err
	}
	n := net.N()
	// The network's working set serves every squaring — the ⌈log₂ n⌉
	// products reuse the same message matrices, payload buffers, and block
	// operands — and takes back each iterate, witness matrix, and routing
	// table once the next one supersedes it.
	sc := ccmm.ScratchOf(net)
	w := ccmm.GetMat[int64](sc, n)
	for v := range w.Rows {
		copy(w.Rows[v], g.Matrix().Row(v))
	}

	// Initial routing table: direct edges point at the target.
	next := ccmm.GetMat[int64](sc, n)
	for u := 0; u < n; u++ {
		row := next.Rows[u]
		for v := 0; v < n; v++ {
			switch {
			case u == v:
				row[v] = int64(u)
			case !ring.IsInf(w.Rows[u][v]):
				row[v] = int64(v)
			default:
				row[v] = ring.NoWitness
			}
		}
	}

	depth := SquaringCap(n)
	for iter := 0; iter < depth; iter++ {
		net.Phase(fmt.Sprintf("apsp3d/square-%d", iter))
		w2, q, err := ccmm.DistanceProduct3D(net, sc, w, w)
		if err != nil {
			return nil, err
		}
		// R'[u,v] = R[u, Q[u,v]] where the square strictly improved, R[u,v]
		// elsewhere — a purely local update, since node u owns all the rows
		// involved. It is written into a second table so that updates
		// within the same squaring cannot observe each other.
		next2 := ccmm.GetMat[int64](sc, n)
		net.ForEach(func(u int) {
			wrow, w2row := w.Rows[u], w2.Rows[u]
			old, nrow, qrow := next.Rows[u], next2.Rows[u], q.Rows[u]
			for v := 0; v < n; v++ {
				if w2row[v] < wrow[v] {
					nrow[v] = old[qrow[v]]
				} else {
					nrow[v] = old[v]
				}
			}
		})
		// The routing table moves only where the distances strictly
		// improved, so unchanged distances are a fixed point of both.
		settled := iter+1 < depth && Settled(net, w, w2)
		ccmm.PutMat(sc, w)
		ccmm.PutMat(sc, q)
		ccmm.PutMat(sc, next)
		w, next = w2, next2
		if settled {
			break
		}
	}

	// Negative-cycle check: one node's negative diagonal entry is enough,
	// and one round tells everyone.
	if net.Any(func(v int) bool { return w.Rows[v][v] < 0 }) {
		return nil, fmt.Errorf("distance: graph contains a negative cycle")
	}
	return &Result{Dist: w, Next: next}, nil
}
