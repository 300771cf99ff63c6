package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"strings"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/distance"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// The table1 experiment is Table 1 of the paper as the BENCH_table1.json
// ledger: one row per (Table-1 row, engine, n) with the rounds and words a
// fresh session charges, and the answer — a count, a girth, a product's
// digest — where one is worth pinning; exact for the seed, gated for
// equality. Beside the ledger it checks as code that
//
//   - each ladder's fitted round exponent is at most the paper's bound
//     plus exponentSlack: 1/3 for the semiring 3D engine, rho for the
//     bilinear engine and the reductions on it, the same on rounds/log₂ n
//     for APSP and Seidel, 0 for 4-cycle detection and the sparse square;
//   - each baseline — the naive gather, Dolev et al., the broadcast clique
//     (§4, Corollary 24) — charges more rounds than the row beside it and
//     gives the same answer;
//   - the approximate distances of Theorem 9 stay within their stretch.
//
// Theorem 9's approximate APSP is one row at δ = 1/2: at n = 64, δ = 1/2,
// 1/4 and 1/8 charge 30 895, 78 021 and 235 506 rounds, and simulating
// the smaller δ would dominate the experiment.

// rho is the bilinear engine's exponent with the Strassen scheme,
// 1 − 2/log₂7 (DESIGN.md "Engine selection").
var rho = 1 - 2/math.Log2(7)

// exponentSlack is how far a fit may exceed its bound: the ladders are two
// to five sizes long and the bilinear engine's rounds step with its scheme
// (19, 19, 56, 57 at n = 16 … 1024); 4-cycle counting fits 0.197.
const exponentSlack = 0.1

type table1Row struct {
	Row    string `json:"row"`
	Engine string `json:"engine"`
	N      int    `json:"n"`
	Rounds int64  `json:"rounds"`
	Words  int64  `json:"words"`
	Answer string `json:"answer,omitempty"`
	// Bits is the bits per entry of a row whose products pack their
	// entries (see residueBits, packedBits and seidelBits): one width, or
	// one per squaring or level where the loop sets each its own; empty
	// where every entry is a word.
	Bits string `json:"bits_per_entry,omitempty"`
}

func (r table1Row) key() string { return fmt.Sprintf("%s/%s/%d", r.Row, r.Engine, r.N) }

// op is one measured call; it returns the row's answer.
type op func(s *cc.Clique, n int) (string, cc.Stats, error)

type table1Run struct {
	rows  []table1Row
	fails []string
}

// ladder measures f at every n, each on a fresh session under engine e.
func (t *table1Run) ladder(row string, e cc.Engine, ns []int, f op) []table1Row {
	return t.packedLadder(row, e, ns, f, nil)
}

// packedLadder is ladder for a row whose products pack their entries:
// bits(n, st) is the row's bits per entry at n, given what the call
// charged (its phases name the squarings or levels that ran).
func (t *table1Run) packedLadder(row string, e cc.Engine, ns []int, f op, bits func(n int, st cc.Stats) string) []table1Row {
	var out []table1Row
	for _, n := range ns {
		s, err := cc.NewClique(n, cc.WithEngine(e))
		check(err)
		ans, st, err := f(s, n)
		check(err)
		check(s.Close())
		r := table1Row{Row: row, Engine: e.String(), N: n, Rounds: st.Rounds, Words: st.Words, Answer: ans}
		if bits != nil {
			r.Bits = bits(n, st)
		}
		fmt.Printf("   %-34s %-13s %5d %7d %11d  %s %s\n", r.Row, r.Engine, r.N, r.Rounds, r.Words, r.Answer, r.Bits)
		t.rows, out = append(t.rows, r), append(out, r)
	}
	return out
}

func (t *table1Run) expect(ok bool, format string, args ...any) {
	if !ok {
		t.fails = append(t.fails, fmt.Sprintf(format, args...))
	}
}

// exponent least-squares fits log rounds — log(rounds/log₂ n) when perLog
// — against log n, checks it against bound + exponentSlack and returns it.
func (t *table1Run) exponent(rows []table1Row, perLog bool, bound float64) float64 {
	var sx, sy, sxx, sxy float64
	for _, r := range rows {
		x, y := math.Log(float64(r.N)), math.Log(float64(r.Rounds))
		if perLog {
			y -= math.Log(math.Log2(float64(r.N)))
		}
		sx, sy, sxx, sxy = sx+x, sy+y, sxx+x*x, sxy+x*y
	}
	k := float64(len(rows))
	e := (k*sxy - sx*sy) / (k*sxx - sx*sx)
	fit := fmt.Sprintf("%s (%s): rounds ~ n^%.3f", rows[0].Row, rows[0].Engine, e)
	if perLog {
		fit = fmt.Sprintf("%s (%s): rounds/log₂ n ~ n^%.3f", rows[0].Row, rows[0].Engine, e)
	}
	fmt.Printf("   %s, bound %.3f + %g\n", fit, bound, exponentSlack)
	t.expect(e <= bound+exponentSlack, "%s exceeds the bound %.3f + %g", fit, bound, exponentSlack)
	return e
}

// beats checks each row of a against the row of b at the same n: fewer
// rounds, and the same answer where both carry one.
func (t *table1Run) beats(a, b []table1Row) {
	matched := 0
	for _, x := range a {
		for _, y := range b {
			if x.N != y.N {
				continue
			}
			matched++
			t.expect(x.Rounds < y.Rounds, "n=%d: %s (%s) charges %d rounds, %s (%s) %d; want fewer",
				x.N, x.Row, x.Engine, x.Rounds, y.Row, y.Engine, y.Rounds)
			t.expect(x.Answer == "" || y.Answer == "" || x.Answer == y.Answer, "n=%d: %s (%s) answers %s, %s (%s) %s",
				x.N, x.Row, x.Engine, x.Answer, y.Row, y.Engine, y.Answer)
		}
	}
	t.expect(matched > 0, "%s and %s share no n", a[0].Row, b[0].Row)
}

// digest names a matrix by the FNV-1a hash of its entries, so rows can
// pin a product.
func digest(m cc.Mat) string {
	h := fnv.New64a()
	var b [8]byte
	for _, row := range m {
		for _, x := range row {
			binary.LittleEndian.PutUint64(b[:], uint64(x))
			h.Write(b[:])
		}
	}
	return fmt.Sprintf("fnv %016x", h.Sum64())
}

// matMul multiplies two randSquare operands drawn with the given seeds.
func matMul(seedA, seedB uint64) op {
	return func(s *cc.Clique, n int) (string, cc.Stats, error) {
		_, st, err := s.MatMul(randSquare(n, seedA), randSquare(n, seedB))
		return "", st, err
	}
}

// count runs a counting method on GNP(n, p) drawn with seed.
func count(f func(*cc.Clique, *cc.Graph, ...cc.CallOption) (int64, cc.Stats, error), p float64, seed uint64) op {
	return func(s *cc.Clique, n int) (string, cc.Stats, error) {
		c, st, err := f(s, cc.GNP(n, p, false, seed))
		return strconv.FormatInt(c, 10), st, err
	}
}

// apsp runs an APSP method on RandomConnectedWeighted(n, p, maxW) drawn
// with seed, validating the routing table when there is one.
func apsp(f func(*cc.Clique, *cc.Weighted, ...cc.CallOption) (*cc.APSPResult, cc.Stats, error), p float64, maxW int64, seed uint64) op {
	return func(s *cc.Clique, n int) (string, cc.Stats, error) {
		g := cc.RandomConnectedWeighted(n, p, maxW, true, seed)
		res, st, err := f(s, g)
		if err == nil && res.Next != nil {
			err = cc.ValidateRouting(g, res)
		}
		return "", st, err
	}
}

// exactAPSP runs APSP on RandomConnectedWeighted(n, p, maxW) drawn with
// seed like apsp, and pins the distances' digest, which packing must not
// move.
func exactAPSP(p float64, maxW int64, seed uint64) op {
	return func(s *cc.Clique, n int) (string, cc.Stats, error) {
		g := cc.RandomConnectedWeighted(n, p, maxW, true, seed)
		res, st, err := s.APSP(g)
		if err != nil {
			return "", st, err
		}
		return digest(res.Dist), st, cc.ValidateRouting(g, res)
	}
}

// packedBits reports the bits per entry of each distance product APSP ran
// on RandomConnectedWeighted(n, p, maxW) drawn with seed: its weights are
// non-negative, so squaring s runs at its hop bound
// min(2^{s+1}, n−1)·maxW (distance.SquaringBound), maxW from the
// max-weight round — "o₀,o₁,… / +w": the operand bits of each squaring
// that ran, in loop order, and the witness bits its partials add, against
// the 64 of the simulator's word (a reader converting to O(log n)-bit
// words divides by these).
func packedBits(p float64, maxW int64, seed uint64) func(n int, st cc.Stats) string {
	return func(n int, st cc.Stats) string {
		top := cc.RandomConnectedWeighted(n, p, maxW, true, seed).MaxWeight()
		var ops []string
		wit := 0
		for s := range countPhases(st, "apsp3d/square-") {
			op, partial, ok := ccmm.PackedWidths(distance.SquaringBound(st.N, top, s), st.N)
			if !ok {
				return ""
			}
			ops, wit = append(ops, strconv.Itoa(op)), partial-op
		}
		return fmt.Sprintf("%s / +%d", strings.Join(ops, ","), wit)
	}
}

// residueBits reports the bits per entry of a counting row, whose integer
// products ship residues mod 2^b at A² ≤ n, a bound known from n alone.
func residueBits(n int, _ cc.Stats) string { return strconv.Itoa(ring.IntBits(int64(n))) }

// seidelBits reports the bits per entry of each parity product D₂'·A that
// Seidel's recursion ran, by level from depth 0: level k ships residues at
// its depth bound (n−1)·⌈(n−1)/2^{k+1}⌉ (distance.SeidelBounds).
func seidelBits(_ int, st cc.Stats) string {
	var bits []string
	for k := range countPhases(st, "seidel/parity-") {
		_, bound := distance.SeidelBounds(st.N, k)
		bits = append(bits, strconv.Itoa(ring.IntBits(bound)))
	}
	return strings.Join(bits, ",")
}

// countPhases returns how many of st's phases are named with prefix.
func countPhases(st cc.Stats, prefix string) int {
	c := 0
	for _, ph := range st.Phases {
		if strings.HasPrefix(ph.Name, prefix) {
			c++
		}
	}
	return c
}

// girth runs Girth on g.
func girth(g *cc.Graph, opts ...cc.CallOption) op {
	return func(s *cc.Clique, _ int) (string, cc.Stats, error) {
		v, _, st, err := s.Girth(g, opts...)
		return strconv.Itoa(v), st, err
	}
}

// sparseSquare squares the adjacency of GNP(n, 2.5/n): through the
// Theorem 4 tiles (SquareAdjacencySparse) on a Sparse session, as a
// matmul on any other.
func sparseSquare(s *cc.Clique, n int) (string, cc.Stats, error) {
	g := cc.GNP(n, 2.5/float64(n), false, 33)
	if s.Engine() == cc.Sparse {
		sq, st, err := s.SquareAdjacencySparse(g)
		return digest(sq), st, err
	}
	a := make(cc.Mat, n)
	for v := range a {
		a[v] = make([]int64, n)
		for _, u := range g.Neighbors(v) {
			a[v][u] = 1
		}
	}
	sq, st, err := s.MatMul(a, a)
	return digest(sq), st, err
}

// table1Bench is the `ccbench table1` experiment entry point.
func table1Bench() {
	var t table1Run
	fmt.Printf("   %-34s %-13s %5s %7s %11s  %s\n", "row", "engine", "n", "rounds", "words", "answer")

	semi := t.ladder("T1.1 matmul (semiring)", cc.Semiring3D, []int{27, 64, 125, 216, 512}, matMul(1, 2))
	t.exponent(semi, false, 1.0/3)
	naive := t.ladder("T1.1 matmul (semiring)", cc.Naive, []int{27, 216}, matMul(5, 6))
	t.exponent(naive, false, 1)
	t.beats(semi, naive)
	t.exponent(t.ladder("T1.2 matmul (ring)", cc.Fast, []int{16, 64, 256, 1024}, matMul(3, 4)), false, rho)

	t.beats(t.packedLadder("T1.3 triangle counting", cc.Fast, []int{64, 256}, count((*cc.Clique).CountTriangles, 0.25, 7), residueBits),
		t.ladder("T1.3 baseline: Dolev et al.", cc.Auto, []int{64, 256}, count((*cc.Clique).CountTrianglesDolev, 0.25, 7)))
	t.exponent(t.ladder("T1.4 4-cycle detection", cc.Auto, []int{16, 64, 256, 1024}, func(s *cc.Clique, n int) (string, cc.Stats, error) {
		found, st, err := s.DetectFourCycle(cc.GNP(n, 3/float64(n), false, 8))
		return strconv.FormatBool(found), st, err
	}), false, 0)
	t.exponent(t.packedLadder("T1.5 4-cycle counting", cc.Fast, []int{16, 64, 256}, count((*cc.Clique).CountFourCycles, 0.2, 9), residueBits), false, rho)

	// Colour-coding costs O(3^k) products per colouring (Lemma 11): two
	// colourings of a tree, which has no cycle to stop them early.
	var kcycle [][]table1Row
	for _, k := range []int{3, 4, 5} {
		kcycle = append(kcycle, t.ladder(fmt.Sprintf("T1.6 %d-cycle detection, 2 colourings", k), cc.Auto, []int{16, 64},
			func(s *cc.Clique, n int) (string, cc.Stats, error) {
				found, st, err := s.DetectCycle(cc.Tree(n, 10), k, cc.WithColourings(2), cc.WithSeed(11))
				return strconv.FormatBool(found), st, err
			}))
	}
	t.beats(kcycle[0], kcycle[1])
	t.beats(kcycle[1], kcycle[2])

	t.ladder("T1.7 girth, dense G(n, 1/2)", cc.Auto, []int{64}, girth(cc.GNP(64, 0.5, false, 12), cc.WithColourings(40), cc.WithSeed(13)))
	cycle := t.ladder("T1.7 girth, n-cycle", cc.Auto, []int{64}, girth(cc.Cycle(64, false)))
	t.expect(cycle[0].Answer == "64", "girth of the 64-cycle = %s", cycle[0].Answer)
	t.ladder("T1.7 girth, directed G(n, 0.05)", cc.Auto, []int{64}, girth(cc.GNP(64, 0.05, true, 14)))

	t.exponent(t.packedLadder("T1.8 weighted APSP", cc.Auto, []int{27, 64, 125}, exactAPSP(0.2, 50, 15), packedBits(0.2, 50, 15)), true, 1.0/3)
	t.exponent(t.ladder("T1.8 baseline: learn everything", cc.Naive, []int{27, 125}, apsp((*cc.Clique).APSPNaive, 0.2, 50, 19)), false, 1)

	// Small-weight APSP costs Õ(U·n^ρ) (Corollary 8): rounds rise with the
	// weights.
	var small [][]table1Row
	for _, maxW := range []int64{1, 4, 8} {
		small = append(small, t.ladder(fmt.Sprintf("T1.9 small-weight APSP, maxW %d", maxW), cc.Fast, []int{64},
			apsp((*cc.Clique).APSPSmallWeights, 0.15, maxW, 16)))
	}
	t.beats(small[0], small[1])
	t.beats(small[1], small[2])

	t.packedLadder("T1.10 exact reference", cc.Auto, []int{64}, exactAPSP(0.15, 40, 17), packedBits(0.15, 40, 17))
	t.ladder("T1.10 approximate APSP, δ = 1/2", cc.Fast, []int{64}, func(s *cc.Clique, n int) (string, cc.Stats, error) {
		g := cc.RandomConnectedWeighted(n, 0.15, 40, true, 17)
		exact, err := graphs.FloydWarshall(g)
		check(err)
		approx, stretch, st, err := s.APSPApprox(g, cc.WithDelta(0.5))
		worst := 1.0
		for u := 0; err == nil && u < n; u++ {
			for v, a := range approx.Dist[u] {
				if d := exact.At(u, v); a < d || cc.IsInf(a) != cc.IsInf(d) {
					t.expect(false, "approximate d(%d,%d) = %d, exact %d", u, v, a, d)
				} else if !cc.IsInf(d) && d > 0 {
					worst = max(worst, float64(a)/float64(d))
				}
			}
		}
		t.expect(worst <= stretch, "approximate APSP stretches %.3f, beyond its bound %.3f", worst, stretch)
		return fmt.Sprintf("stretch %.3f ≤ %.3f", worst, stretch), st, err
	})

	t.exponent(t.packedLadder("T1.11 unweighted APSP (Seidel)", cc.Fast, []int{16, 64, 256}, func(s *cc.Clique, n int) (string, cc.Stats, error) {
		_, st, err := s.APSPUnweighted(cc.GNP(n, 0.15, false, 18))
		return "", st, err
	}, seidelBits), true, rho)

	bcast := t.ladder("§4 matmul, broadcast clique", cc.Auto, []int{64, 216}, func(s *cc.Clique, n int) (string, cc.Stats, error) {
		_, st, err := s.MatMulBroadcast(randSquare(n, 31), randSquare(n, 32))
		return "", st, err
	})
	t.exponent(bcast, false, 1)
	t.beats(t.ladder("§4 matmul, unicast clique", cc.Semiring3D, []int{64, 216}, matMul(31, 32)), bcast)
	t.beats(t.ladder("§4 matmul, unicast clique", cc.Fast, []int{64, 216}, matMul(31, 32)), bcast)

	tiles := t.ladder("§1.2 sparse A²", cc.Sparse, []int{64, 256, 1024}, sparseSquare)
	t.exponent(tiles, false, 0)
	t.beats(tiles, t.ladder("§1.2 sparse A²", cc.Fast, []int{64, 256, 1024}, sparseSquare))

	// The balanced cube layout keeps the 3D engine ahead of the naive
	// gather on non-cube n.
	minPlus := func(s *cc.Clique, n int) (string, cc.Stats, error) {
		p, st, err := s.DistanceProduct(randSquare(n, 41), randSquare(n, 42))
		return digest(p), st, err
	}
	nonCube := []int{50, 60, 100, 150, 200, 300}
	t.beats(t.ladder("min-plus product, non-cube n", cc.Semiring3D, nonCube, minPlus),
		t.ladder("min-plus product, non-cube n", cc.Naive, nonCube, minPlus))

	for _, f := range t.fails {
		fmt.Fprintln(os.Stderr, "   CHECK:", f)
	}
	if len(t.fails) > 0 {
		check(fmt.Errorf("table1: %d check(s) failed", len(t.fails)))
	}
	gateLedger("table1",
		"Table 1: rounds and words per (row, engine, n) on a fresh session, and the answer where one is pinned; exact for "+
			"the seed, gated for equality (the exponent and baseline checks are code, cmd/ccbench/table1.go). A word is 64 bits; "+
			"bits_per_entry, on the exact APSP rows, is each squaring's operand width in bits, in loop order, / the witness "+
			"bits its partials add; on the counting rows the width of the residues mod 2^b their integer products ship, and on "+
			"the Seidel rows that width for each level's parity product, from depth 0",
		t.rows)
}
