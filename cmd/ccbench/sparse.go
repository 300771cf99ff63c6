package main

import (
	"fmt"
	"slices"

	cc "github.com/algebraic-clique/algclique"
)

// The sparse experiment measures the density-aware planner: the same
// integer product A·A on GNP adjacency matrices, once on a default Auto
// session (census + sparse routing) and once with the census disabled
// (WithSparseThreshold(0) — the purely static dense plan). The two products
// must be equal whatever is committed; the route the census chose and both
// charges are the BENCH_sparse.json ledger.

type sparseRow struct {
	N           int     `json:"n"`
	P           float64 `json:"p"`
	Routing     string  `json:"routing"`
	RoundsAuto  int64   `json:"rounds_auto"`
	WordsAuto   int64   `json:"words_auto"`
	RoundsDense int64   `json:"rounds_dense"`
	WordsDense  int64   `json:"words_dense"`
	Match       bool    `json:"results_match"`
}

func (r sparseRow) key() string { return fmt.Sprintf("%d/%.6f", r.N, r.P) }

func measureSparse() []sparseRow {
	var rows []sparseRow
	for _, n := range []int{64, 100, 256} {
		for _, p := range []float64{2 / float64(n), 8 / float64(n), 0.5} {
			g := cc.GNP(n, p, false, 7)
			a := make([][]int64, n)
			for v := 0; v < n; v++ {
				a[v] = make([]int64, n)
				for _, u := range g.Neighbors(v) {
					a[v][u] = 1
				}
			}
			auto, err := cc.NewClique(n)
			check(err)
			pa, sa, err := auto.MatMul(a, a)
			check(err)
			check(auto.Close())
			dense, err := cc.NewClique(n, cc.WithSparseThreshold(0))
			check(err)
			pd, sd, err := dense.MatMul(a, a)
			check(err)
			check(dense.Close())
			rows = append(rows, sparseRow{
				N: n, P: p, Routing: sa.Routing,
				RoundsAuto: sa.Rounds, WordsAuto: sa.Words,
				RoundsDense: sd.Rounds, WordsDense: sd.Words,
				Match: slices.EqualFunc(pa, pd, slices.Equal[[]int64]),
			})
		}
	}
	return rows
}

// sparseBench is the `ccbench sparse` experiment entry point.
func sparseBench() {
	rows := measureSparse()
	fmt.Println("     n       p  routing         rounds(auto)  rounds(dense)  words(auto)  words(dense)  speedup")
	for _, r := range rows {
		fmt.Printf("   %3d  %.4f  %-14s %13d %14d %12d %13d  %6.2fx\n",
			r.N, r.P, r.Routing, r.RoundsAuto, r.RoundsDense, r.WordsAuto, r.WordsDense,
			float64(r.RoundsDense)/float64(r.RoundsAuto))
		if !r.Match {
			check(fmt.Errorf("sparse: n=%d p=%.4f: %s-routed product differs from the dense plan", r.N, r.P, r.Routing))
		}
	}
	gateLedger("sparse",
		"Auto (density census + sparse tile engine) vs WithSparseThreshold(0) (static dense plan) on GNP "+
			"adjacency squaring: the route chosen and both charges; exact for the seed, gated for equality",
		rows)
}
