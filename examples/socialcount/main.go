// Socialcount: subgraph counting on a skewed "social" graph — the
// motivating workload for distributed subgraph detection. Counts triangles
// and 4-cycles with the algebraic algorithms, cross-checks the triangle
// count against the combinatorial baseline of Dolev et al., and detects
// 4-cycles in O(1) rounds (Theorem 4).
//
//	go run ./examples/socialcount
package main

import (
	"fmt"
	"log"

	cc "github.com/algebraic-clique/algclique"
)

func main() {
	// A preferential-attachment graph: heavy-tailed degrees, like a social
	// network neighbourhood graph.
	const n = 128
	g := cc.PreferentialAttachment(n, 3, 2024)
	fmt.Printf("social graph: %d nodes, %d edges\n\n", g.N(), g.EdgeCount())

	// One session serves every query below: both graphs have n nodes.
	sess, err := cc.NewClique(n)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	triangles, st, err := sess.CountTriangles(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("triangles (algebraic, %v engine):  %6d in %4d rounds\n",
		cc.Auto, triangles, st.Rounds)

	dolev, sd, err := sess.CountTrianglesDolev(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("triangles (Dolev et al. baseline): %6d in %4d rounds\n", dolev, sd.Rounds)
	if triangles != dolev {
		log.Fatalf("count mismatch: %d vs %d", triangles, dolev)
	}

	c4s, sc, err := sess.CountFourCycles(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4-cycles (trace formula):          %6d in %4d rounds\n", c4s, sc.Rounds)

	found, sdet, err := sess.DetectFourCycle(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("4-cycle detection (Theorem 4):     %6v in %4d rounds — constant in n\n",
		found, sdet.Rounds)

	// Triadic closure ratio: how much denser in triangles is the hub
	// region than a degree-matched random graph? (A classic social-network
	// statistic, computed entirely with congested-clique primitives.)
	rnd := cc.GNP(n, float64(2*g.EdgeCount())/float64(n*(n-1)), false, 7)
	rndTri, _, err := sess.CountTriangles(rnd)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntriangles in a density-matched G(n,p): %d (PA graph has %.1f× more)\n",
		rndTri, float64(triangles)/float64(max64(rndTri, 1)))
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
