// Command ccbench reproduces the evaluation artefacts of "Algebraic
// Methods in the Congested Clique" (PODC 2015) on the simulator: each
// subcommand regenerates one Table 1 row as measured round counts, with
// fitted growth exponents next to the paper's bounds.
//
// Usage:
//
//	ccbench list             # enumerate experiments
//	ccbench all              # run everything (a few minutes)
//	ccbench t1-mm-semiring   # run one experiment
//	ccbench table1           # compact Table-1-style summary at n = 64
//
// Four experiments are gated — matmul, sparse, csr, chaos: each ends in a
// committed ledger, BENCH_<id>.json, that a run must reproduce exactly
// (ledger.go) — and serve is a pass/fail campaign. No experiment times
// anything or commits an allocation count: that is bench/, the yardstick
// BENCHMARK.json declares.
package main

import (
	"encoding/json"
	"fmt"
	"math"
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
	experiments := []experiment{
		{"t1-mm-semiring", "T1.1 matrix multiplication (semiring) — O(n^{1/3})", mmSemiring},
		{"t1-mm-ring", "T1.2 matrix multiplication (ring) — O(n^ρ)", mmRing},
		{"t1-triangles", "T1.3 triangle counting — ours vs Dolev et al.", triangles},
		{"t1-c4detect", "T1.4 4-cycle detection — O(1) rounds", c4Detect},
		{"t1-c4count", "T1.5 4-cycle counting — O(n^ρ)", c4Count},
		{"t1-kcycle", "T1.6 k-cycle detection — 2^{O(k)} n^ρ per colouring", kCycle},
		{"t1-girth", "T1.7 girth — Õ(n^ρ)", girthExp},
		{"t1-apsp-exact", "T1.8 weighted directed APSP — O(n^{1/3} log n)", apspExact},
		{"t1-apsp-smallw", "T1.9 small-weight APSP — Õ(U·n^ρ)", apspSmallW},
		{"t1-apsp-approx", "T1.10 (1+o(1))-approximate APSP — O(n^{ρ+o(1)})", apspApprox},
		{"t1-apsp-seidel", "T1.11 unweighted undirected APSP — O(n^ρ)", apspSeidel},
		{"x2-broadcast", "X2 broadcast-clique separation (§4, Corollary 24)", broadcastGap},
		{"x3-sparsesquare", "X3 sparse A² in O(1) rounds (§1.2 remark)", sparseSquare},
		{"x4-mm-padded", "X4 padded 3D vs naive min-plus on non-cube n (JSON)", mmPadded},
		{"matmul", "X6 multiply-and-message schedule: session products, packed vs unpacked booleans (ledger, gated)", matmulBench},
		{"sparse", "X7 density-aware planner: sparse tile engine vs dense plan on GNP (ledger, gated)", sparseBench},
		{"serve", "X8 service plane: 2000 concurrent mixed queries over 6 tenants (pass/fail)", serveBench},
		{"chaos", "X9 fault plane: 240 seeded chaos scenarios, typed-or-correct (ledger, gated)", chaosBench},
		{"csr", "X10 CSR operand plane: GNP(1e4–1e5) adjacency squares, zero-dense-allocation + memory budgets (ledger, gated)", csrBench},
		{"table1", "Table 1 summary at n = 64", table1},
	}
	if len(os.Args) < 2 || os.Args[1] == "list" {
		fmt.Println("experiments:")
		for _, e := range experiments {
			fmt.Printf("  %-18s %s\n", e.id, e.title)
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

// fitExponent least-squares fits log(rounds) = a + e·log(n).
func fitExponent(ns []int, rounds []int64) float64 {
	var sx, sy, sxx, sxy float64
	k := float64(len(ns))
	for i := range ns {
		x := math.Log(float64(ns[i]))
		y := math.Log(float64(rounds[i]))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	return (k*sxy - sx*sy) / (k*sxx - sx*sx)
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccbench:", err)
		os.Exit(1)
	}
}

func mmSemiring() {
	ns := []int{27, 64, 125, 216, 512}
	fmt.Println("   n    rounds     words   rounds/n^(1/3)")
	var rounds []int64
	for _, n := range ns {
		a, b := randSquare(n, 1), randSquare(n, 2)
		_, stats, err := cc.MatMul(a, b, cc.WithEngine(cc.Semiring3D))
		check(err)
		rounds = append(rounds, stats.Rounds)
		fmt.Printf("%5d %9d %9d   %.2f\n", n, stats.Rounds, stats.Words,
			float64(stats.Rounds)/math.Cbrt(float64(n)))
	}
	fmt.Printf("   fitted exponent %.3f (paper: 1/3 ≈ 0.333; lower bound Ω̃(n^{1/3}) — §4)\n",
		fitExponent(ns, rounds))
}

func mmRing() {
	ns := []int{16, 64, 256, 1024}
	fmt.Println("   n    rounds     words")
	var rounds []int64
	for _, n := range ns {
		a, b := randSquare(n, 3), randSquare(n, 4)
		_, stats, err := cc.MatMul(a, b, cc.WithEngine(cc.Fast))
		check(err)
		rounds = append(rounds, stats.Rounds)
		fmt.Printf("%5d %9d %9d\n", n, stats.Rounds, stats.Words)
	}
	fmt.Printf("   fitted exponent %.3f (Strassen bound 1−2/log₂7 ≈ 0.287; paper's ω gives 0.157)\n",
		fitExponent(ns, rounds))
	for _, n := range []int{27, 216} {
		a, b := randSquare(n, 5), randSquare(n, 6)
		_, stats, err := cc.MatMul(a, b, cc.WithEngine(cc.Naive))
		check(err)
		fmt.Printf("   naive baseline n=%d: %d rounds (Θ(n))\n", n, stats.Rounds)
	}
}

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

func triangles() {
	fmt.Println("   n    ours(rounds)  dolev(rounds)  count")
	for _, n := range []int{64, 256} {
		g := cc.GNP(n, 0.25, false, 7)
		ours, so, err := cc.CountTriangles(g, cc.WithEngine(cc.Fast))
		check(err)
		dolev, sd, err := cc.CountTrianglesDolev(g)
		check(err)
		okMark := "OK"
		if ours != dolev {
			okMark = "MISMATCH"
		}
		fmt.Printf("%5d %12d %14d  %8d (%s)\n", n, so.Rounds, sd.Rounds, ours, okMark)
	}
}

func c4Detect() {
	fmt.Println("   n    rounds   words    found")
	for _, n := range []int{16, 64, 256, 1024} {
		g := cc.GNP(n, 3.0/float64(n), false, 8)
		found, stats, err := cc.DetectFourCycle(g)
		check(err)
		fmt.Printf("%5d %8d %9d   %v\n", n, stats.Rounds, stats.Words, found)
	}
	fmt.Println("   rounds must be flat in n (Theorem 4: O(1) rounds)")
}

func c4Count() {
	ns := []int{16, 64, 256}
	fmt.Println("   n    rounds    count")
	var rounds []int64
	for _, n := range ns {
		g := cc.GNP(n, 0.2, false, 9)
		count, stats, err := cc.CountFourCycles(g, cc.WithEngine(cc.Fast))
		check(err)
		rounds = append(rounds, stats.Rounds)
		fmt.Printf("%5d %8d %9d\n", n, stats.Rounds, count)
	}
	fmt.Printf("   fitted exponent %.3f (bound: n^ρ)\n", fitExponent(ns, rounds))
}

func kCycle() {
	fmt.Println("   k   n    rounds/colouring")
	for _, k := range []int{3, 4, 5} {
		for _, n := range []int{16, 64} {
			g := cc.Tree(n, 10)
			_, stats, err := cc.DetectCycle(g, k, cc.WithColourings(2), cc.WithSeed(11))
			check(err)
			fmt.Printf("%4d %4d %10d\n", k, n, stats.Rounds/2)
		}
	}
	fmt.Println("   cost grows ~3^k at fixed n (Lemma 11: O(3^k) products per colouring)")
}

func girthExp() {
	dense := cc.GNP(64, 0.5, false, 12)
	v, ok, sd, err := cc.Girth(dense, cc.WithColourings(40), cc.WithSeed(13))
	check(err)
	fmt.Printf("   dense   n=64: girth=%d ok=%v rounds=%d (colour-coding branch)\n", v, ok, sd.Rounds)
	sparse := cc.Cycle(64, false)
	v, ok, ss, err := cc.Girth(sparse)
	check(err)
	fmt.Printf("   sparse  n=64: girth=%d ok=%v rounds=%d (gather branch)\n", v, ok, ss.Rounds)
	dir := cc.GNP(64, 0.05, true, 14)
	v, ok, sdir, err := cc.Girth(dir)
	check(err)
	fmt.Printf("   directed n=64: girth=%d ok=%v rounds=%d (doubling + binary search)\n", v, ok, sdir.Rounds)
}

func apspExact() {
	ns := []int{27, 64, 125}
	fmt.Println("   n    rounds     words")
	var rounds []int64
	for _, n := range ns {
		g := cc.RandomConnectedWeighted(n, 0.2, 50, true, 15)
		res, stats, err := cc.APSP(g)
		check(err)
		check(cc.ValidateRouting(g, res))
		rounds = append(rounds, stats.Rounds)
		fmt.Printf("%5d %9d %9d\n", n, stats.Rounds, stats.Words)
	}
	fmt.Printf("   fitted exponent %.3f (bound: n^{1/3}·log n; routing tables validated)\n",
		fitExponent(ns, rounds))
}

func apspSmallW() {
	fmt.Println("   maxW  rounds (n = 64)")
	for _, maxW := range []int64{1, 4, 8} {
		g := cc.RandomConnectedWeighted(64, 0.15, maxW, true, 16)
		_, stats, err := cc.APSPSmallWeights(g, cc.WithEngine(cc.Fast))
		check(err)
		fmt.Printf("%6d %8d\n", maxW, stats.Rounds)
	}
	fmt.Println("   rounds grow with the weighted diameter U (Corollary 8: Õ(U·n^ρ))")
}

func apspApprox() {
	g := cc.RandomConnectedWeighted(64, 0.15, 40, true, 17)
	exact, se, err := cc.APSP(g)
	check(err)
	fmt.Printf("   exact semiring APSP: %d rounds\n", se.Rounds)
	fmt.Println("   delta  rounds  stretch-bound  measured-max-stretch")
	for _, delta := range []float64{0.5, 0.25, 0.125} {
		approx, stretch, sa, err := cc.APSPApprox(g, cc.WithEngine(cc.Fast), cc.WithDelta(delta))
		check(err)
		worst := 1.0
		for u := range exact.Dist {
			for v := range exact.Dist[u] {
				e, a := exact.Dist[u][v], approx.Dist[u][v]
				if cc.IsInf(e) || e == 0 {
					continue
				}
				if r := float64(a) / float64(e); r > worst {
					worst = r
				}
			}
		}
		fmt.Printf("   %5.3f %7d %14.3f %21.3f\n", delta, sa.Rounds, stretch, worst)
	}
}

func apspSeidel() {
	ns := []int{16, 64, 256}
	fmt.Println("   n    rounds     words")
	var rounds []int64
	for _, n := range ns {
		g := cc.GNP(n, 0.15, false, 18)
		_, stats, err := cc.APSPUnweighted(g, cc.WithEngine(cc.Fast))
		check(err)
		rounds = append(rounds, stats.Rounds)
		fmt.Printf("%5d %9d %9d\n", n, stats.Rounds, stats.Words)
	}
	fmt.Printf("   fitted exponent %.3f (bound: n^ρ·log n)\n", fitExponent(ns, rounds))
	for _, n := range []int{27, 125} {
		g := cc.RandomConnectedWeighted(n, 0.2, 50, true, 19)
		_, stats, err := cc.APSPNaive(g)
		check(err)
		fmt.Printf("   naive baseline n=%d: %d rounds (Θ(n))\n", n, stats.Rounds)
	}
}

func broadcastGap() {
	fmt.Println("   n    broadcast-clique  unicast semiring  unicast fast")
	for _, n := range []int{64, 216} {
		a, b := randSquare(n, 31), randSquare(n, 32)
		_, sb, err := cc.MatMulBroadcast(a, b)
		check(err)
		_, s3, err := cc.MatMul(a, b, cc.WithEngine(cc.Semiring3D))
		check(err)
		_, sf, err := cc.MatMul(a, b, cc.WithEngine(cc.Fast))
		check(err)
		fmt.Printf("%5d %17d %17d %13d\n", n, sb.Rounds, s3.Rounds, sf.Rounds)
	}
	fmt.Println("   broadcast clique needs Ω̃(n) rounds for matmul (Corollary 24);")
	fmt.Println("   the unicast algorithms demonstrate the model separation.")
}

func sparseSquare() {
	fmt.Println("   n    rounds (sparse A²)   rounds (fast matmul A²)")
	for _, n := range []int{64, 256, 1024} {
		g := cc.GNP(n, 2.5/float64(n), false, 33)
		_, ss, err := cc.SquareAdjacencySparse(g)
		check(err)
		a := make([][]int64, n)
		for v := 0; v < n; v++ {
			a[v] = make([]int64, n)
			for _, u := range g.Neighbors(v) {
				a[v][u] = 1
			}
		}
		_, sm, err := cc.MatMul(a, a, cc.WithEngine(cc.Fast))
		check(err)
		fmt.Printf("%5d %12d %21d\n", n, ss.Rounds, sm.Rounds)
	}
	fmt.Println("   on sparse graphs the Theorem 4 machinery squares A in O(1) rounds")
}

// mmPadded compares the padded 3D engine against the naive baseline for
// min-plus products on non-cube clique sizes — the sizes that, before the
// padded cube layout, silently fell back to the Θ(n)-round gather. The
// results are emitted as one JSON object so future changes can track the
// round-count trajectory mechanically.
func mmPadded() {
	type row struct {
		N           int     `json:"n"`
		Rounds3D    int64   `json:"rounds_3d"`
		Words3D     int64   `json:"words_3d"`
		RoundsNaive int64   `json:"rounds_naive"`
		WordsNaive  int64   `json:"words_naive"`
		Speedup     float64 `json:"round_speedup"`
		Match       bool    `json:"results_match"`
	}
	report := struct {
		Experiment string `json:"experiment"`
		Metric     string `json:"metric"`
		Results    []row  `json:"results"`
	}{
		Experiment: "mm3d-padded-vs-naive",
		Metric:     "min-plus product rounds on non-cube clique sizes",
	}
	for _, n := range []int{50, 60, 100, 150, 200, 300} {
		a, b := randSquare(n, 41), randSquare(n, 42)
		p3, s3, err := cc.DistanceProduct(a, b, cc.WithEngine(cc.Semiring3D))
		check(err)
		pn, sn, err := cc.DistanceProduct(a, b, cc.WithEngine(cc.Naive))
		check(err)
		match := true
		for i := 0; i < n && match; i++ {
			for j := 0; j < n; j++ {
				if p3[i][j] != pn[i][j] {
					match = false
					break
				}
			}
		}
		if !match || s3.Rounds >= sn.Rounds {
			check(fmt.Errorf("x4-mm-padded: regression at n=%d (match=%v, 3d=%d rounds, naive=%d rounds)",
				n, match, s3.Rounds, sn.Rounds))
		}
		report.Results = append(report.Results, row{
			N:           n,
			Rounds3D:    s3.Rounds,
			Words3D:     s3.Words,
			RoundsNaive: sn.Rounds,
			WordsNaive:  sn.Words,
			Speedup:     float64(sn.Rounds) / float64(s3.Rounds),
			Match:       match,
		})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("   ", "  ")
	check(enc.Encode(report))
	fmt.Println("   the 3D engine must match naive exactly and charge fewer rounds for n ≥ 50")
}

// table1 prints a compact reproduction of Table 1 at n = 64. All runs at
// one instance size share two sessions (one per engine selection), so the
// whole table reuses two networks and the cumulative ledgers total the
// reproduction's cost.
func table1() {
	type row struct {
		problem string
		rounds  int64
		prior   string
	}
	var rows []row
	add := func(problem string, rounds int64, prior string) {
		rows = append(rows, row{problem, rounds, prior})
	}

	auto, err := cc.NewClique(64)
	check(err)
	defer auto.Close()
	fast, err := cc.NewClique(64, cc.WithEngine(cc.Fast))
	check(err)
	defer fast.Close()

	a, b := randSquare(64, 21), randSquare(64, 22)
	_, s3, err := cc.MatMul(a, b, cc.WithEngine(cc.Semiring3D))
	check(err)
	add("matrix multiplication (semiring)", s3.Rounds, "—")
	_, sf, err := fast.MatMul(a, b)
	check(err)
	add("matrix multiplication (ring)", sf.Rounds, "—")

	g := cc.GNP(64, 0.25, false, 23)
	_, st, err := fast.CountTriangles(g)
	check(err)
	_, sd, err := auto.CountTrianglesDolev(g)
	check(err)
	add("triangle counting", st.Rounds, fmt.Sprintf("%d (Dolev et al.)", sd.Rounds))

	_, s4, err := auto.DetectFourCycle(cc.GNP(64, 0.05, false, 24))
	check(err)
	add("4-cycle detection", s4.Rounds, "—")
	_, sc, err := fast.CountFourCycles(g)
	check(err)
	add("4-cycle counting", sc.Rounds, "—")

	_, sk, err := auto.DetectCycle(cc.Tree(64, 25), 5, cc.WithColourings(1))
	check(err)
	add("5-cycle detection (per colouring)", sk.Rounds, "—")

	_, _, sg, err := auto.Girth(cc.GNP(64, 0.5, false, 26), cc.WithColourings(40), cc.WithSeed(2))
	check(err)
	add("girth", sg.Rounds, "—")

	wg := cc.RandomConnectedWeighted(64, 0.2, 50, true, 27)
	_, se, err := auto.APSP(wg)
	check(err)
	_, sn, err := auto.APSPNaive(wg)
	check(err)
	add("weighted directed APSP (exact)", se.Rounds, fmt.Sprintf("%d (naive)", sn.Rounds))

	_, _, sa, err := fast.APSPApprox(wg, cc.WithDelta(0.25))
	check(err)
	add("weighted APSP (1+δ approx, δ=.25)", sa.Rounds, "—")

	_, su, err := fast.APSPUnweighted(cc.GNP(64, 0.15, false, 28))
	check(err)
	add("unweighted undirected APSP", su.Rounds, "—")

	fmt.Println("   problem                              rounds   combinatorial baseline")
	for _, r := range rows {
		fmt.Printf("   %-36s %6d   %s\n", r.problem, r.rounds, r.prior)
	}
	as, fs := auto.Stats(), fast.Stats()
	fmt.Printf("   session ledgers: auto %d ops / %d rounds, fast %d ops / %d rounds\n",
		len(as.Ops), as.Rounds, len(fs.Ops), fs.Rounds)
}
