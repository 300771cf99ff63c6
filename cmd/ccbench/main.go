// Command ccbench reproduces the evaluation artefacts of "Algebraic
// Methods in the Congested Clique" (PODC 2015) on the simulator.
//
// Usage:
//
//	ccbench list     # enumerate experiments
//	ccbench table1   # run one experiment
//	ccbench all      # run every experiment in turn
//
// Five experiments are gated — table1, matmul, sparse, chaos, csr: each
// ends in a committed ledger, BENCH_<id>.json, that a run must reproduce
// exactly (ledger.go) — and serve is a pass/fail campaign. table1 is the
// paper's Table 1: every row's round counts, with its fitted growth
// exponent checked against the paper's bound (table1.go). No experiment
// times anything or commits an allocation count: that is bench/, the
// yardstick BENCHMARK.json declares.
package main

import (
	"fmt"
	"os"
	"time"

	cc "github.com/algebraic-clique/algclique"
)

type experiment struct {
	id    string
	title string
	run   func()
}

func main() {
	// csr runs first: its n = 2000 footprint budget reads MemStats.Sys, a
	// process-wide high-water mark, which the other experiments would
	// already have raised when `ccbench all` runs them in one process.
	experiments := []experiment{
		{"csr", "CSR operand plane: GNP(1e4–1e5) adjacency squares, zero-dense-allocation + memory budgets (ledger, gated)", csrBench},
		{"table1", "Table 1: round counts per row, engine and n, fitted exponents checked against the paper's bounds (ledger, gated)", table1Bench},
		{"matmul", "multiply-and-message schedule: session products, packed vs unpacked booleans (ledger, gated)", matmulBench},
		{"sparse", "density-aware planner: sparse tile engine vs dense plan on GNP (ledger, gated)", sparseBench},
		{"serve", "service plane: 2000 concurrent mixed queries over 6 tenants (pass/fail)", serveBench},
		{"chaos", "fault plane: 240 seeded chaos scenarios, typed-or-correct (ledger, gated)", chaosBench},
	}
	if len(os.Args) < 2 || os.Args[1] == "list" {
		fmt.Println("experiments:")
		for _, e := range experiments {
			fmt.Printf("  %-8s %s\n", e.id, e.title)
		}
		if len(os.Args) < 2 {
			os.Exit(2)
		}
		return
	}
	want := os.Args[1]
	ran := false
	for _, e := range experiments {
		if want == "all" || want == e.id {
			fmt.Printf("== %s: %s\n", e.id, e.title)
			start := time.Now()
			e.run()
			fmt.Printf("   (%.1fs)\n\n", time.Since(start).Seconds())
			ran = true
		}
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "ccbench: unknown experiment %q (try: ccbench list)\n", want)
		os.Exit(2)
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccbench:", err)
		os.Exit(1)
	}
}

// randSquare draws a dense n×n product operand with entries in [0, 100].
func randSquare(n int, seed uint64) [][]int64 {
	g := cc.RandomWeighted(n, 0.99, 100, true, seed)
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
