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

// LearnGraph makes every node learn the whole undirected graph g, each
// edge shipped once — as the word u from its endpoint v < u — and returns
// the graph every node then holds (ccmm.Learn): on the wire transport the
// one rebuilt from the words that arrived, on the direct transport g
// itself.
func LearnGraph(net *clique.Network, g *graphs.Graph) *graphs.Graph {
	n := net.N()
	lens := make([]int64, n)
	for v := 0; v < n; v++ {
		g.Row(v).ForEach(func(u int) {
			if u > v {
				lens[v]++
			}
		})
	}
	return ccmm.Learn(net, g, lens, func(v int) []clique.Word {
		ws := make([]clique.Word, 0, lens[v])
		g.Row(v).ForEach(func(u int) {
			if u > v {
				ws = append(ws, clique.Word(u))
			}
		})
		return ws
	}, func(all [][]clique.Word) *graphs.Graph {
		rebuilt := graphs.NewGraph(n, false)
		for v, ws := range all {
			for _, w := range ws {
				rebuilt.AddEdge(v, int(w))
			}
		}
		return rebuilt
	})
}

func checkGraphSize(net *clique.Network, g *graphs.Graph) error {
	if g.N() != net.N() {
		return fmt.Errorf("subgraph: graph has %d nodes on an %d-node clique: %w",
			g.N(), net.N(), ccmm.ErrSize)
	}
	return nil
}
