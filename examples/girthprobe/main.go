// Girthprobe: girth computation on structured graphs (Theorem 5 /
// Corollary 16) — the shortest-cycle statistic that, before this paper,
// had no non-trivial congested-clique algorithm.
//
//	go run ./examples/girthprobe
package main

import (
	"fmt"
	"log"

	cc "github.com/algebraic-clique/algclique"
)

func main() {
	fmt.Println("undirected girth (Theorem 5: density test + colour-coding / gather):")
	undirected := []struct {
		name string
		g    *cc.Graph
	}{
		{"Petersen graph (girth 5)", cc.Petersen()},
		{"6×6 torus (girth 4)", cc.Torus(6, 6)},
		{"triangle + long cycles", withChord()},
		{"random tree (acyclic)", cc.Tree(40, 11)},
		{"dense G(64, .5) (girth 3 whp)", cc.GNP(64, 0.5, false, 12)},
	}
	for _, tc := range undirected {
		girth, ok, stats, err := girthOf(tc.g, cc.WithColourings(60), cc.WithSeed(5))
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			fmt.Printf("  %-32s girth %2d   (%4d rounds, clique n=%d)\n",
				tc.name, girth, stats.Rounds, stats.N)
		} else {
			fmt.Printf("  %-32s acyclic    (%4d rounds, clique n=%d)\n",
				tc.name, stats.Rounds, stats.N)
		}
	}

	fmt.Println("\ndirected girth (Corollary 16: reachability doubling + binary search):")
	directed := []struct {
		name string
		g    *cc.Graph
	}{
		{"directed 12-cycle", cc.Cycle(12, true)},
		{"2-cycle (antiparallel pair)", antiparallel()},
		{"random tournament-ish", cc.GNP(32, 0.08, true, 13)},
		{"DAG (acyclic)", dag(24)},
	}
	for _, tc := range directed {
		girth, ok, stats, err := girthOf(tc.g)
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			fmt.Printf("  %-32s girth %2d   (%4d rounds)\n", tc.name, girth, stats.Rounds)
		} else {
			fmt.Printf("  %-32s acyclic    (%4d rounds)\n", tc.name, stats.Rounds)
		}
	}
}

// girthOf runs Girth on a session sized to g.
func girthOf(g *cc.Graph, opts ...cc.CallOption) (int, bool, cc.Stats, error) {
	s, err := cc.NewClique(g.N())
	if err != nil {
		return 0, false, cc.Stats{}, err
	}
	defer s.Close()
	return s.Girth(g, opts...)
}

// withChord: a 15-cycle with a chord creating a short cycle.
func withChord() *cc.Graph {
	g := cc.NewGraph(15, false)
	for i := 0; i < 15; i++ {
		g.AddEdge(i, (i+1)%15)
	}
	g.AddEdge(0, 2) // chord: triangle 0-1-2
	return g
}

func antiparallel() *cc.Graph {
	g := cc.NewGraph(10, true)
	g.AddEdge(3, 7)
	g.AddEdge(7, 3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	return g
}

func dag(n int) *cc.Graph {
	g := cc.NewGraph(n, true)
	for u := 0; u < n; u++ {
		for v := u + 1; v < u+4 && v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}
