package main

import (
	"encoding/json"
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
// (192 B per link, 770 MB) used to be built whatever the traffic. Each row
// records the deterministic simulator charges (rounds,
// words), the process allocation profile around the product (mallocs,
// bytes allocated, runtime.MemStats.Sys as the peak-footprint proxy), and
// the ccmm.DenseAllocs counter every dense row-matrix constructor bumps.
//
// The gate is two-layered:
//
//   - hard memory invariants that hold on any machine: the DenseAllocs
//     delta across the product must be zero (no dense n×n buffer on the
//     CSR path, pooled or not), the result must come back sparse, total
//     bytes allocated must stay below one dense matrix's 8n², at
//     n ≥ 10⁵ the whole process footprint must sit far below it —
//     the "peak RSS sublinear in n²" acceptance criterion — and at
//     n = 2000 (rows run smallest-first, so Sys is theirs) both must stay
//     below two dense matrices, 64 MB: link state follows traffic, and
//     the CSR engine's never asks for n² of it (csrSmallBudget);
//   - trajectory bounds against the committed BENCH_csr.json: the seeded
//     generator makes nnz exact, so input/output nnz must match the
//     baseline bit-for-bit, rounds/words within benchTolerance, and the
//     allocation counts within a slightly wider band (pool warm-up and
//     goroutine stacks add one-off noise that round counts don't have).
//
// The refreshed file is written back and uploaded as a CI artifact so an
// intentional change can replace the baseline.

const csrBaselinePath = "BENCH_csr.json"

// csrMemTolerance is the gate band for allocation metrics: byte and
// malloc counts are dominated by the deterministic tuple streams but
// carry one-off runtime noise (pool growth, stack moves) that the
// round/word ledger doesn't, so they get a wider band than benchTolerance
// plus a small absolute slack.
const (
	csrMemTolerance  = 0.25
	csrMemSlackBytes = 1 << 20
)

// csrLinkFloor mirrors clique's sparseLinkFloor: from here up a network is
// pinned to sparse links, below it the traffic selects the form.
// csrSmallBudget is the allocation and footprint ceiling of the rows below
// it, in dense n×n matrices. One matrix (32 MB at n = 2000) holds the c = 2
// row but is no ceiling for c = 8, whose output is 3 % dense: its cold tuple
// streams are 21 MB and the links it touches 14 MB more. Two matrices hold
// both, and the flat-array link state the gate exists to catch is 24.
const (
	csrLinkFloor   = 4096
	csrSmallBudget = 2
)

type csrRow struct {
	N            int     `json:"n"`
	AvgDeg       float64 `json:"avg_deg"`
	NNZIn        int64   `json:"nnz_in"`
	NNZOut       int64   `json:"nnz_out"`
	SparseResult bool    `json:"sparse_result"`
	Rounds       int64   `json:"rounds"`
	Words        int64   `json:"words"`
	Allocs       uint64  `json:"allocs"`
	AllocBytes   uint64  `json:"alloc_bytes"`
	SysBytes     uint64  `json:"sys_bytes"`
	DenseAllocs  int64   `json:"dense_allocs"`
	DenseBytes   uint64  `json:"dense_matrix_bytes"`
}

type csrFile struct {
	Experiment string   `json:"experiment"`
	Note       string   `json:"note"`
	Results    []csrRow `json:"results"`
}

func csrKey(r csrRow) string { return fmt.Sprintf("%d/%.1f", r.N, r.AvgDeg) }

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
func measureCSRRow(n int, avgDeg float64, seed uint64) csrRow {
	adj := gnpAdjacency(n, avgDeg, seed)
	runtime.GC() // level the collector so the alloc window is the product's own
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	dense0 := ccmm.DenseAllocs()
	sq, st, err := cc.SquareAdjacencyCSR(adj)
	check(err)
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	row := csrRow{
		N: n, AvgDeg: avgDeg,
		NNZIn:        adj.NNZ(),
		SparseResult: sq.IsSparse(),
		Rounds:       st.Rounds,
		Words:        st.Words,
		Allocs:       ms1.Mallocs - ms0.Mallocs,
		AllocBytes:   ms1.TotalAlloc - ms0.TotalAlloc,
		SysBytes:     ms1.Sys,
		DenseAllocs:  ccmm.DenseAllocs() - dense0,
		DenseBytes:   8 * uint64(n) * uint64(n),
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
	return row
}

// measureCSR runs the campaign smallest-first so MemStats.Sys — a
// monotone high-water mark of memory obtained from the OS — reflects each
// row's own footprint rather than a larger predecessor's (GNP(2000, 8/n)
// and GNP(10⁴, 2/n) both sit near 40 MB, so the latter's Sys can read the
// former's; neither gate looks at it).
func measureCSR() []csrRow {
	var rows []csrRow
	for _, cfg := range []struct {
		n      int
		avgDeg float64
	}{
		{2000, 2},
		{2000, 8},
		{10000, 2},
		{10000, 8},
		{100000, 8},
	} {
		fmt.Printf("   squaring GNP(%d, %.0f/n) on the CSR plane...\n", cfg.n, cfg.avgDeg)
		rows = append(rows, measureCSRRow(cfg.n, cfg.avgDeg, uint64(cfg.n)*31+uint64(cfg.avgDeg)))
	}
	return rows
}

func csrGate(base, cur []csrRow) []string {
	var fails []string
	for _, r := range cur {
		// Hard invariants — machine-independent, hold with or without a
		// committed baseline.
		if r.DenseAllocs != 0 {
			fails = append(fails, fmt.Sprintf("n=%d c=%.0f: CSR path allocated %d dense n×n row matrices; want 0",
				r.N, r.AvgDeg, r.DenseAllocs))
		}
		if !r.SparseResult {
			fails = append(fails, fmt.Sprintf("n=%d c=%.0f: adjacency square densified on a sparse input", r.N, r.AvgDeg))
		}
		budget := r.DenseBytes
		if r.N < csrLinkFloor {
			budget *= csrSmallBudget
		}
		if r.AllocBytes >= budget {
			fails = append(fails, fmt.Sprintf("n=%d c=%.0f: %d bytes allocated exceeds %d dense n×n matrices (%d bytes)",
				r.N, r.AvgDeg, r.AllocBytes, budget/r.DenseBytes, budget))
		}
		// Below the simulator's sparse-link floor the network picks its link
		// form from the traffic; the CSR engine's must leave it sparse.
		if r.N < csrLinkFloor && r.SysBytes >= budget {
			fails = append(fails, fmt.Sprintf("n=%d c=%.0f: process footprint %d bytes reaches %d dense n×n matrices (%d bytes): the network built Θ(n²) link state for Θ(n) traffic",
				r.N, r.AvgDeg, r.SysBytes, budget/r.DenseBytes, budget))
		}
		// The headline sublinearity assertion: at n = 10⁵ a dense matrix
		// is 80 GB; the whole process must fit in a small fraction of it.
		if r.N >= 100000 && r.SysBytes > r.DenseBytes/8 {
			fails = append(fails, fmt.Sprintf("n=%d c=%.0f: process footprint %d bytes is not sublinear in n² (dense matrix = %d bytes)",
				r.N, r.AvgDeg, r.SysBytes, r.DenseBytes))
		}
	}
	baseByKey := map[string]csrRow{}
	for _, b := range base {
		baseByKey[csrKey(b)] = b
	}
	worse := func(now, then int64) bool { return float64(now) > float64(then)*(1+benchTolerance) }
	for _, r := range cur {
		b, ok := baseByKey[csrKey(r)]
		if !ok {
			continue
		}
		// The generator is seeded and the simulator deterministic: nnz
		// must reproduce exactly, charges within the usual band.
		if r.NNZIn != b.NNZIn || r.NNZOut != b.NNZOut {
			fails = append(fails, fmt.Sprintf("n=%d c=%.0f: nnz %d→%d differs from committed %d→%d (seeded run must reproduce exactly)",
				r.N, r.AvgDeg, r.NNZIn, r.NNZOut, b.NNZIn, b.NNZOut))
		}
		if worse(r.Rounds, b.Rounds) {
			fails = append(fails, fmt.Sprintf("n=%d c=%.0f: rounds %d > baseline %d", r.N, r.AvgDeg, r.Rounds, b.Rounds))
		}
		if worse(r.Words, b.Words) {
			fails = append(fails, fmt.Sprintf("n=%d c=%.0f: words %d > baseline %d", r.N, r.AvgDeg, r.Words, b.Words))
		}
		if float64(r.Allocs) > float64(b.Allocs)*(1+csrMemTolerance)+64 {
			fails = append(fails, fmt.Sprintf("n=%d c=%.0f: allocs %d > baseline %d", r.N, r.AvgDeg, r.Allocs, b.Allocs))
		}
		if float64(r.AllocBytes) > float64(b.AllocBytes)*(1+csrMemTolerance)+csrMemSlackBytes {
			fails = append(fails, fmt.Sprintf("n=%d c=%.0f: alloc bytes %d > baseline %d", r.N, r.AvgDeg, r.AllocBytes, b.AllocBytes))
		}
	}
	return fails
}

// csrBench is the `ccbench csr` experiment entry point.
func csrBench() {
	cur := measureCSR()

	var committed csrFile
	gated := false
	if raw, err := os.ReadFile(csrBaselinePath); err == nil {
		check(json.Unmarshal(raw, &committed))
		gated = len(committed.Results) > 0
	}
	if fails := csrGate(committed.Results, cur); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "   REGRESSION:", f)
		}
		check(fmt.Errorf("csr: %d CSR-plane memory/charge regression(s)", len(fails)))
	}

	out := csrFile{
		Experiment: "csr-adjacency-square",
		Note: "GNP(n, c/n) adjacency squares through the CSR operand plane (SquareAdjacencyCSR); gated on the zero " +
			"dense-allocation invariant, sparse results, total allocation below one dense n×n matrix (two, and the process " +
			"footprint with it, at n=2000), process footprint sublinear in n² at n=1e5, exact seeded nnz reproduction, and ±10% rounds/words versus the " +
			"committed baseline",
		Results: cur,
	}
	raw, err := json.MarshalIndent(out, "", "  ")
	check(err)
	raw = append(raw, '\n')
	check(os.WriteFile(csrBaselinePath, raw, 0o644))
	fmt.Printf("   wrote %s\n", csrBaselinePath)
	if gated {
		fmt.Printf("   no regression > %.0f%% versus committed baseline\n", benchTolerance*100)
	} else {
		fmt.Printf("   no committed baseline found at %s; snapshot recorded\n", csrBaselinePath)
	}
	fmt.Println("        n    c    nnz(A)    nnz(A²)  rounds         words      allocs   alloc MiB   sys MiB  dense-allocs")
	for _, r := range cur {
		fmt.Printf("   %6d  %3.0f  %8d  %9d  %6d  %12d  %10d  %10.1f  %8.1f  %12d\n",
			r.N, r.AvgDeg, r.NNZIn, r.NNZOut, r.Rounds, r.Words, r.Allocs,
			float64(r.AllocBytes)/(1<<20), float64(r.SysBytes)/(1<<20), r.DenseAllocs)
	}
}
