// Routingtables: weighted all-pairs shortest paths with routing tables —
// the distance-computation workload of §3.3. Computes exact APSP by
// min-plus iterated squaring (Corollary 6), extracts actual routes from
// the witness-built routing tables, and compares against the naive
// learn-everything baseline and the (1+δ)-approximation (Theorem 9).
//
//	go run ./examples/routingtables
package main

import (
	"fmt"
	"log"

	cc "github.com/algebraic-clique/algclique"
)

func main() {
	// A weighted network: 25 routers, sparse random links with latencies.
	const n = 25
	g := cc.RandomConnectedWeighted(n, 0.12, 20, true, 99)
	fmt.Printf("network: %d nodes, directed weighted links (latency 1..20)\n\n", n)

	sess, err := cc.NewClique(n)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()

	res, stats, err := sess.APSP(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("exact APSP (semiring squaring): %d rounds on an n=%d clique (padded from %d)\n",
		stats.Rounds, stats.N, n)
	if err := cc.ValidateRouting(g, res); err != nil {
		log.Fatal(err)
	}
	fmt.Println("routing tables validated: every path realises its distance")

	// Print a few routes.
	for _, pair := range [][2]int{{0, 13}, {7, 2}, {24, 11}} {
		u, v := pair[0], pair[1]
		path := res.Path(u, v)
		fmt.Printf("  route %2d → %2d: distance %3d, path %v\n", u, v, res.Dist[u][v], path)
	}

	naive, sn, err := sess.APSPNaive(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nnaive baseline: %d rounds (exact algebraic: %d)\n", sn.Rounds, stats.Rounds)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if naive.Dist[u][v] != res.Dist[u][v] {
				log.Fatalf("baseline disagrees at (%d,%d)", u, v)
			}
		}
	}

	approx, stretch, sa, err := sess.APSPApprox(g, cc.WithDelta(0.25))
	if err != nil {
		log.Fatal(err)
	}
	worst := 1.0
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if cc.IsInf(res.Dist[u][v]) || res.Dist[u][v] == 0 {
				continue
			}
			if r := float64(approx.Dist[u][v]) / float64(res.Dist[u][v]); r > worst {
				worst = r
			}
		}
	}
	fmt.Printf("approximate APSP (δ=0.25): %d rounds, stretch bound %.3f, measured max stretch %.3f\n",
		sa.Rounds, stretch, worst)
}
