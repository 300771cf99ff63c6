// Package subgraph implements the paper's subgraph detection and counting
// algorithms (§3.1):
//
//   - CountTriangles, CountC4: trace-formula counting via one distributed
//     matrix product plus O(1) rounds of local exchanges (Corollary 2).
//   - DetectKCycleColourful / DetectKCycle: colour-coding detection of
//     k-cycles (Lemma 11, Theorem 3).
//   - DetectC4: the novel constant-round 4-cycle detection (Theorem 4),
//     including the Lemma 12 tile allocation.
package subgraph

import (
	"fmt"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
)

// sumBroadcast sums per-node partial values via a single broadcast round.
func sumBroadcast(net *clique.Network, partial []int64) int64 {
	n := net.N()
	vals := make([]clique.Word, n)
	for v := 0; v < n; v++ {
		vals[v] = clique.Word(partial[v])
	}
	got := net.BroadcastWord(vals)
	var total int64
	for _, w := range got {
		total += int64(w)
	}
	return total
}

func checkGraphSize(net *clique.Network, g *graphs.Graph) error {
	if g.N() != net.N() {
		return fmt.Errorf("subgraph: graph has %d nodes on an %d-node clique: %w",
			g.N(), net.N(), ccmm.ErrSize)
	}
	return nil
}
