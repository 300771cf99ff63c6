// Quickstart: open a session (a reusable simulated congested clique), run
// several of the paper's algorithms on it, and inspect both per-operation
// and cumulative communication costs.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	cc "github.com/algebraic-clique/algclique"
)

func main() {
	// A 16-node graph: two overlapping communities with a shared core.
	g := cc.NewGraph(16, false)
	edges := [][2]int{
		{0, 1}, {0, 2}, {1, 2}, // triangle in community A
		{2, 3}, {3, 4}, {2, 4}, // triangle sharing node 2
		{4, 5}, {5, 6}, {6, 4}, // triangle in community B
		{6, 7}, {7, 8}, {8, 9}, // a tail
		{9, 10}, {10, 11}, {11, 9}, // triangle at the end
		{12, 13}, {14, 15}, // stray edges
	}
	for _, e := range edges {
		g.AddEdge(e[0], e[1])
	}

	// A session owns the simulated network, the resolved engine plan, and
	// reusable buffers; every operation below shares them. Session options
	// (engine, workers, transport) are fixed here; per-call options (seed,
	// round limits, contexts) go to the individual methods.
	sess, err := cc.NewClique(g.N())
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	count, stats, err := sess.CountTriangles(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges\n", g.N(), g.EdgeCount())
	fmt.Printf("triangles: %d\n", count)
	fmt.Printf("simulated congested clique: n=%d, %d rounds, %d words\n",
		stats.N, stats.Rounds, stats.Words)
	for _, p := range stats.Phases {
		fmt.Printf("  phase %-18s %3d rounds %8d words\n", p.Name, p.Rounds, p.Words)
	}

	// More questions on the same session — the network and engine plan are
	// reused, not rebuilt.
	c4, _, err := sess.CountFourCycles(g)
	if err != nil {
		log.Fatal(err)
	}
	girth, ok, _, err := sess.Girth(g, cc.WithSeed(1))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4-cycles: %d; girth: %d (cyclic: %v)\n", c4, girth, ok)

	// The session ledger totals the whole pipeline.
	ledger := sess.Stats()
	fmt.Printf("session total: %d operations, %d rounds, %d words\n",
		len(ledger.Ops), ledger.Rounds, ledger.Words)
	for _, op := range ledger.Ops {
		fmt.Printf("  %-18s %5d rounds %9d words\n", op.Op, op.Rounds, op.Words)
	}

	// The engine is a session option, so a baseline is a second session:
	// here the Θ(n)-round learn-everything engine for comparison.
	naiveSess, err := cc.NewClique(g.N(), cc.WithEngine(cc.Naive))
	if err != nil {
		log.Fatal(err)
	}
	defer naiveSess.Close()
	_, naive, err := naiveSess.CountTriangles(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("naive baseline: %d rounds (algebraic: %d)\n", naive.Rounds, stats.Rounds)
}
