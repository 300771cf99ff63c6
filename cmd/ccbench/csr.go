package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/ccmm"
)

// The csr experiment squares GNP(n, c/n) adjacency matrices through the
// CSR operand plane at n from 10⁴ up to 10⁵ — sizes where a single dense
// n×n int64 buffer (8n² bytes) ranges from 800 MB to 80 GB and must never
// exist — and at n = 2000, where the simulator's flat-array link state
// (192 B per link, 770 MB) used to be built whatever the traffic.
//
// What is exact for the seed — nnz in and out, whether the result stayed
// sparse, rounds and words — is the BENCH_csr.json ledger. The memory
// profile around the product (bytes allocated, runtime.MemStats.Sys as the
// peak-footprint proxy, the ccmm.DenseAllocs counter every dense
// row-matrix constructor bumps) moves by a hair from run to run, so it is
// printed, never committed, and held to budgets that are code:
//
//   - the DenseAllocs delta across the product must be zero (no dense n×n
//     buffer on the CSR path, pooled or not) and the result must come
//     back sparse;
//   - bytes allocated must stay under the row's budget, about twice what
//     the product allocates today and at every n ≥ 10⁴ far below one dense
//     matrix's 8n²;
//   - at n ≥ 10⁵ the whole process footprint must sit far below one dense
//     matrix — the "peak RSS sublinear in n²" acceptance criterion — and
//     at n = 2000 (rows run smallest-first, so Sys is theirs) below two,
//     64 MB: link state follows traffic, and the CSR engine's never asks
//     for n² of it. Sys never falls, so that budget holds only in a
//     process nothing else has grown: main lists csr first, and
//     `ccbench all` runs it before every other experiment.

// csrLinkFloor mirrors clique's sparseLinkFloor: from here up a network is
// pinned to sparse links, below it the traffic selects the form.
// csrSmallBudget is the footprint ceiling of the rows below it, in dense
// n×n matrices. One matrix (32 MB at n = 2000) holds the c = 2 row but is
// no ceiling for c = 8, whose output is 3 % dense: its cold tuple streams
// are 21 MB and the links it touches 14 MB more. Two matrices hold both,
// and the flat link records the gate exists to catch (64 B a link) are 8.
const (
	csrLinkFloor   = 4096
	csrSmallBudget = 2
)

// csrRow is one ledger row: the seed-exact half of a measurement.
type csrRow struct {
	N            int     `json:"n"`
	AvgDeg       float64 `json:"avg_deg"`
	NNZIn        int64   `json:"nnz_in"`
	NNZOut       int64   `json:"nnz_out"`
	SparseResult bool    `json:"sparse_result"`
	Rounds       int64   `json:"rounds"`
	Words        int64   `json:"words"`
}

// csrMem is the other half: the product's memory profile, budgeted here
// and never committed.
type csrMem struct {
	Allocs, AllocBytes, SysBytes uint64
	DenseAllocs                  int64
}

func (r csrRow) key() string { return fmt.Sprintf("%d/%.1f", r.N, r.AvgDeg) }

// gnpAdjacency draws a GNP(n, avgDeg/n) adjacency straight into CSR form
// with geometric skip sampling — Θ(nnz) work and memory, never a dense
// row, so the generator itself cannot mask a dense allocation in the
// product under test. Val stays nil: the adjacency encoding is structure
// only.
func gnpAdjacency(n int, avgDeg float64, seed uint64) *cc.CSR {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	p := avgDeg / float64(n)
	m := &cc.CSR{N: n, RowPtr: make([]int64, n+1)}
	for v := 0; v < n; v++ {
		c := -1
		for {
			// Geometric(p) skip to the next present edge.
			u := rng.Float64()
			skip := 1
			for q := 1 - p; u < 1 && q > 0; {
				f := u / q
				if f >= 1 {
					break
				}
				u = f
				skip++
				if skip > n {
					break
				}
			}
			c += skip
			if c >= n {
				break
			}
			m.Col = append(m.Col, int32(c))
		}
		m.RowPtr[v+1] = int64(len(m.Col))
	}
	return m
}

// measureCSRRow squares one seeded GNP adjacency on the CSR path and
// captures the full charge and memory profile around the single product.
func measureCSRRow(n int, avgDeg float64, seed uint64) (csrRow, csrMem) {
	adj := gnpAdjacency(n, avgDeg, seed)
	runtime.GC() // level the collector so the alloc window is the product's own
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	dense0 := ccmm.DenseAllocs()
	s, err := cc.NewClique(n)
	check(err)
	sq, st, err := s.SquareAdjacencyCSR(adj)
	check(err)
	check(s.Close())
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	row := csrRow{
		N: n, AvgDeg: avgDeg,
		NNZIn:        adj.NNZ(),
		SparseResult: sq.IsSparse(),
		Rounds:       st.Rounds,
		Words:        st.Words,
	}
	mem := csrMem{
		Allocs:      ms1.Mallocs - ms0.Mallocs,
		AllocBytes:  ms1.TotalAlloc - ms0.TotalAlloc,
		SysBytes:    ms1.Sys,
		DenseAllocs: ccmm.DenseAllocs() - dense0,
	}
	if sq.IsSparse() {
		row.NNZOut = sq.Sparse.NNZ()
	} else {
		for _, r := range sq.Dense {
			for _, x := range r {
				if x != 0 {
					row.NNZOut++
				}
			}
		}
	}
	return row, mem
}

// csrBudgets returns every memory invariant the row breaks; budget is its
// ceiling on bytes allocated.
func csrBudgets(r csrRow, m csrMem, budget uint64) []string {
	var fails []string
	if m.DenseAllocs != 0 {
		fails = append(fails, fmt.Sprintf("n=%d c=%.0f: CSR path allocated %d dense n×n row matrices; want 0",
			r.N, r.AvgDeg, m.DenseAllocs))
	}
	if !r.SparseResult {
		fails = append(fails, fmt.Sprintf("n=%d c=%.0f: adjacency square densified on a sparse input", r.N, r.AvgDeg))
	}
	if m.AllocBytes >= budget {
		fails = append(fails, fmt.Sprintf("n=%d c=%.0f: %d bytes allocated reaches the row's budget of %d",
			r.N, r.AvgDeg, m.AllocBytes, budget))
	}
	dense := 8 * uint64(r.N) * uint64(r.N)
	// Below the simulator's sparse-link floor the network picks its link
	// form from the traffic; the CSR engine's must leave it sparse.
	if r.N < csrLinkFloor && m.SysBytes >= csrSmallBudget*dense {
		fails = append(fails, fmt.Sprintf("n=%d c=%.0f: process footprint %d bytes reaches %d dense n×n matrices (%d bytes): the network built Θ(n²) link state for Θ(n) traffic",
			r.N, r.AvgDeg, m.SysBytes, csrSmallBudget, csrSmallBudget*dense))
	}
	// The headline sublinearity assertion: at n = 10⁵ a dense matrix
	// is 80 GB; the whole process must fit in a small fraction of it.
	if r.N >= 100000 && m.SysBytes > dense/8 {
		fails = append(fails, fmt.Sprintf("n=%d c=%.0f: process footprint %d bytes is not sublinear in n² (dense matrix = %d bytes)",
			r.N, r.AvgDeg, m.SysBytes, dense))
	}
	return fails
}

// csrBench is the `ccbench csr` experiment entry point. The campaign runs
// smallest-first so MemStats.Sys — a monotone high-water mark of memory
// obtained from the OS — reflects each row's own footprint rather than a
// larger predecessor's (GNP(2000, 8/n) and GNP(10⁴, 2/n) both sit near
// 40 MB, so the latter's Sys can read the former's; no budget looks at it).
func csrBench() {
	var rows []csrRow
	var fails []string
	fmt.Println("        n    c    nnz(A)    nnz(A²)  rounds         words      allocs   alloc MiB   sys MiB  dense-allocs")
	for _, cfg := range []struct {
		n      int
		avgDeg float64
		budget uint64 // bytes allocated, about twice today's
	}{
		{2000, 2, 16 << 20},
		{2000, 8, 64 << 20},
		{10000, 2, 80 << 20},
		{10000, 8, 400 << 20},
		{100000, 8, 4 << 30},
	} {
		r, m := measureCSRRow(cfg.n, cfg.avgDeg, uint64(cfg.n)*31+uint64(cfg.avgDeg))
		fmt.Printf("   %6d  %3.0f  %8d  %9d  %6d  %12d  %10d  %10.1f  %8.1f  %12d\n",
			r.N, r.AvgDeg, r.NNZIn, r.NNZOut, r.Rounds, r.Words, m.Allocs,
			float64(m.AllocBytes)/(1<<20), float64(m.SysBytes)/(1<<20), m.DenseAllocs)
		rows = append(rows, r)
		fails = append(fails, csrBudgets(r, m, cfg.budget)...)
	}
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "   BUDGET:", f)
		}
		check(fmt.Errorf("csr: %d CSR-plane memory invariant(s) broken", len(fails)))
	}
	gateLedger("csr",
		"GNP(n, c/n) adjacency squares through the CSR operand plane (SquareAdjacencyCSR): nnz in and out, "+
			"rounds and words; exact for the seed, gated for equality (the memory budgets are code, cmd/ccbench/csr.go)",
		rows)
}
