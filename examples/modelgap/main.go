// Modelgap: one matrix product, four execution models — quantifying the
// paper's central claims in a single run:
//
//   - broadcast congested clique: Θ(n) rounds (the §4 lower bound regime),
//   - unicast naive gather:       Θ(n) rounds,
//   - semiring 3D algorithm:      O(n^{1/3}) rounds (Theorem 1.1),
//   - fast bilinear algorithm:    O(n^{1-2/σ}) rounds (Theorem 1.2),
//
// plus the constant-round sparse square of §1.2 on a sparse graph.
//
//	go run ./examples/modelgap
package main

import (
	"fmt"
	"log"

	cc "github.com/algebraic-clique/algclique"
)

func main() {
	const n = 216 // valid for all engines: 216 = 6³, padded to 225 = 15² for fast
	a := randomMatrix(n, 1)
	b := randomMatrix(n, 2)

	fmt.Printf("multiplying two %d×%d integer matrices, one row per node\n\n", n, n)
	fmt.Println("model / algorithm                rounds   clique size")

	sess, err := cc.NewClique(n)
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	prodB, sb, err := sess.MatMulBroadcast(a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("broadcast clique (Θ(n) forced)  %7d   %d\n", sb.Rounds, sb.N)

	// The engine is a session option: one session per engine, each checked
	// entry for entry against the broadcast product.
	for _, m := range []struct {
		label  string
		engine cc.Engine
	}{{"unicast, naive gather", cc.Naive}, {"unicast, semiring 3D", cc.Semiring3D}, {"unicast, fast bilinear", cc.Fast}} {
		s, err := cc.NewClique(n, cc.WithEngine(m.engine))
		if err != nil {
			log.Fatal(err)
		}
		prod, st, err := s.MatMul(a, b)
		s.Close()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-32s%7d   %d", m.label, st.Rounds, st.N)
		if st.PaddedFrom != 0 {
			fmt.Printf(" (padded from %d)", st.PaddedFrom)
		}
		fmt.Println()
		for i := range prod {
			for j := range prod[i] {
				if prod[i][j] != prodB[i][j] {
					log.Fatalf("%s disagrees with the broadcast product at (%d,%d)", m.label, i, j)
				}
			}
		}
	}
	fmt.Println("\nall four products agree entry-for-entry")

	// Bonus: on a sparse graph, A² needs no algebra at all (Theorem 4's
	// machinery, constant rounds).
	g := cc.GNP(n, 2.5/float64(n), false, 3)
	_, ss, err := sess.SquareAdjacencySparse(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nsparse A² on G(%d, 2.5/n): %d rounds — constant in n (§1.2)\n",
		n, ss.Rounds)
}

func randomMatrix(n int, seed uint64) [][]int64 {
	g := cc.RandomWeighted(n, 0.95, 50, true, seed)
	out := make([][]int64, n)
	for i := 0; i < n; i++ {
		out[i] = make([]int64, n)
		for j := 0; j < n; j++ {
			if w := g.Weight(i, j); !cc.IsInf(w) {
				out[i][j] = w
			}
		}
	}
	return out
}
