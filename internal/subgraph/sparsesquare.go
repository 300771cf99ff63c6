package subgraph

import (
	"errors"
	"fmt"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// Sentinel errors of the sparse adjacency square. Each wraps the
// corresponding engine-level sentinel, so callers can test either layer
// with errors.Is.
var (
	// ErrTooDense reports that the Σ deg(y)² < 2n² sparseness condition of
	// the constant-round square routine does not hold (wraps
	// ccmm.ErrTooDense).
	ErrTooDense = fmt.Errorf("subgraph: graph too dense for the constant-round sparse square: %w", ccmm.ErrTooDense)
	// ErrTooSmall reports a clique below the n ≥ 8 Lemma 12 packing bound
	// (wraps ccmm.ErrSize).
	ErrTooSmall = fmt.Errorf("subgraph: sparse square needs n ≥ 8 for the Lemma 12 packing: %w", ccmm.ErrSize)
	// ErrDirected reports a directed input; the sparse square's degree
	// census is defined for undirected graphs (wraps ccmm.ErrSize).
	ErrDirected = fmt.Errorf("subgraph: sparse square requires an undirected graph: %w", ccmm.ErrSize)
)

// SparseSquareScratch computes row v of A² (the number of 2-walks v→·) at
// every node v in O(1) rounds, for undirected graphs with Σ_y deg(y)² < 2n²
// — the paper's remark that the Theorem 4 machinery "can be interpreted as
// an efficient routine for sparse matrix multiplication, under a specific
// definition of sparseness" (§1.2). It is a thin wrapper over the general
// sparse tile engine (ccmm.SparseMul with the integer ring): for an
// undirected adjacency matrix the engine's column and row nonzero counts
// both equal the degrees, so its Σ ca(y)·rb(y) < 2n² census is exactly the
// degree condition above and its tiles are exactly the Lemma 12 ones.
//
// Returns ErrTooDense (wrapped) when the degree condition fails — the
// caller can fall back to a matmul engine — ErrTooSmall for n < 8, and
// ErrDirected for directed inputs; all three satisfy errors.Is. The product
// runs on the working set sc, nil for the network's own.
func SparseSquareScratch(net *clique.Network, sc *ccmm.Scratch, g *graphs.Graph) (*ccmm.RowMat[int64], error) {
	if err := checkGraphSize(net, g); err != nil {
		return nil, err
	}
	if g.Directed() {
		return nil, ErrDirected
	}
	if net.N() < 8 {
		return nil, fmt.Errorf("%w (got n = %d)", ErrTooSmall, net.N())
	}
	if sc == nil {
		sc = ccmm.ScratchOf(net)
	}
	r := ring.Int64{}
	a := ccmm.AdjacencyRows(sc, g, false)
	defer ccmm.PutMat(sc, a)
	sq, err := ccmm.SparseMul[int64](net, sc, r, r, a, a)
	if err != nil {
		if errors.Is(err, ccmm.ErrTooDense) {
			return nil, fmt.Errorf("%w (%v)", ErrTooDense, err)
		}
		return nil, err
	}
	return sq, nil
}
