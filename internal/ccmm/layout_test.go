package ccmm

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// TestCubeLayoutBijection pins the balanced cube's index structure: the
// cube fits (c³ ≤ n), the c groups partition [0, n) contiguously with
// sizes ⌊n/c⌋ or ⌈n/c⌉ = b, group inverts lo, and c never exceeds the
// number of groups the next cube up fills (⌈n/⌈n^{1/3}⌉²⌉), so no entry is
// replicated more often than on that cube.
func TestCubeLayoutBijection(t *testing.T) {
	for n := 1; n <= 1100; n++ {
		lay := newCubeLayout(n)
		c := lay.c
		up := CbrtCeil(n)
		if c < 1 || c*c*c > n || c > (n+up*up-1)/(up*up) {
			t.Fatalf("n=%d: bad cube side c=%d", n, c)
		}
		if lay.b != (n+c-1)/c {
			t.Fatalf("n=%d: b = %d, want ⌈n/c⌉ = %d", n, lay.b, (n+c-1)/c)
		}
		if lay.lo(0) != 0 || lay.lo(c) != n {
			t.Fatalf("n=%d: groups span [%d, %d), want [0, n)", n, lay.lo(0), lay.lo(c))
		}
		for x := 0; x < c; x++ {
			if size := lay.lo(x+1) - lay.lo(x); size != n/c && size != lay.b {
				t.Fatalf("n=%d: group %d has %d indices, want %d or %d", n, x, size, n/c, lay.b)
			}
			for v := lay.lo(x); v < lay.lo(x+1); v++ {
				if lay.group(v) != x {
					t.Fatalf("n=%d: group(%d) = %d, want %d", n, v, lay.group(v), x)
				}
			}
		}
	}
	// A perfect cube is the paper's layout: groups of c² indices.
	for _, n := range []int{8, 27, 64, 125, 216} {
		lay := newCubeLayout(n)
		if lay.c*lay.c*lay.c != n || lay.b != lay.c*lay.c {
			t.Fatalf("n=%d: c=%d b=%d, want the perfect cube", n, lay.c, lay.b)
		}
	}
}

// TestCubeLayoutHostAssignment pins the subcube → real node map: hosts are
// distinct real nodes, host(u1, ·, ·) lies in group u1 (so a node's row
// block to its own subcube is a free self-send), and subcube inverts host
// on exactly the c³ hosting nodes.
func TestCubeLayoutHostAssignment(t *testing.T) {
	for n := 1; n <= 1100; n++ {
		lay := newCubeLayout(n)
		c := lay.c
		owner := make([]int, n)
		for r := range owner {
			owner[r] = -1
		}
		for u1 := 0; u1 < c; u1++ {
			for u2 := 0; u2 < c; u2++ {
				for u3 := 0; u3 < c; u3++ {
					r := lay.host(u1, u2, u3)
					if r < 0 || r >= n {
						t.Fatalf("n=%d: subcube (%d,%d,%d) hosted by out-of-range %d", n, u1, u2, u3, r)
					}
					if owner[r] >= 0 {
						t.Fatalf("n=%d: node %d hosts two subcubes", n, r)
					}
					owner[r] = (u1*c+u2)*c + u3
					if lay.group(r) != u1 {
						t.Fatalf("n=%d: host %d of subcube (%d,%d,%d) lies in group %d", n, r, u1, u2, u3, lay.group(r))
					}
				}
			}
		}
		for r, o := range owner {
			u1, u2, u3, ok := lay.subcube(r)
			if ok != (o >= 0) || ok && (u1*c+u2)*c+u3 != o {
				t.Fatalf("n=%d: subcube(%d) = (%d,%d,%d,%v), want owner %d", n, r, u1, u2, u3, ok, o)
			}
		}
	}
}

// TestGridLayoutBijection reproduces the Figure 2 index structure: the
// mixed-radix node mapping, the label bijection, and the block-row order
// of the groups ∗x∗.
func TestGridLayoutBijection(t *testing.T) {
	cases := []struct{ n, d int }{{16, 2}, {16, 4}, {64, 4}, {64, 8}, {256, 4}, {144, 6}}
	for _, tc := range cases {
		lay, err := newGridLayout(tc.n, tc.d)
		if err != nil {
			t.Fatal(err)
		}
		q := lay.q
		seen := make([]bool, tc.n)
		for v := 0; v < tc.n; v++ {
			v1, v2, v3 := lay.split(v)
			if v1 < 0 || v1 >= lay.d || v2 < 0 || v2 >= q || v3 < 0 || v3 >= lay.qd {
				t.Fatalf("split(%d) out of range", v)
			}
			if lay.join(v1, v2, v3) != v {
				t.Fatalf("join(split(%d)) != %d", v, v)
			}
			x1, x2 := lay.label(v)
			if lay.nodeAt(x1, x2) != v {
				t.Fatalf("label bijection broken at %d", v)
			}
			seen[v] = true
		}
		for v, s := range seen {
			if !s {
				t.Fatalf("node %d unmapped", v)
			}
		}
		covered := make([]bool, tc.n)
		for x := 0; x < q; x++ {
			group := lay.groupSet(x)
			if len(group) != q {
				t.Fatalf("|∗%d∗| = %d, want q = %d", x, len(group), q)
			}
			for pos, v := range group {
				if covered[v] {
					t.Fatalf("node %d in two groups", v)
				}
				covered[v] = true
				if _, v2, _ := lay.split(v); v2 != x {
					t.Fatalf("node %d in wrong group", v)
				}
				if lay.posInGroup(v) != pos {
					t.Fatalf("posInGroup(%d) = %d, want %d", v, lay.posInGroup(v), pos)
				}
				// Block-row order: position i·(q/d)+u3 is block i, row u3.
				v1, _, v3 := lay.split(v)
				if pos != v1*lay.qd+v3 {
					t.Fatalf("group order violates block-row convention at %d", v)
				}
			}
		}
	}
}

func TestGridLayoutRejectsBadShapes(t *testing.T) {
	if _, err := newGridLayout(15, 2); err == nil {
		t.Error("non-square accepted")
	}
	if _, err := newGridLayout(16, 3); err == nil {
		t.Error("non-divisor block dim accepted")
	}
	if _, err := newGridLayout(16, 0); err == nil {
		t.Error("zero block dim accepted")
	}
}

func TestGridLayoutQuick(t *testing.T) {
	lay, err := newGridLayout(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	roundTrip := func(raw uint16) bool {
		v := int(raw) % 64
		v1, v2, v3 := lay.split(v)
		return lay.join(v1, v2, v3) == v
	}
	if err := quick.Check(roundTrip, nil); err != nil {
		t.Error(err)
	}
}

// runBoundedInt runs engine e on the 0/1 operand as the integer ring
// shipped at b-bit residues.
func runBoundedInt(e Engine, b int) func(net *clique.Network, p *Plan, _ *RowMat[int64], bl *RowMat[int64]) error {
	return func(net *clique.Network, p *Plan, _ *RowMat[int64], bl *RowMat[int64]) error {
		_, err := mulDense[int64](net, p, nil, e, ring.Int64{}, ring.PackedInt{Bits: b}, bl, bl)
		return err
	}
}

// TestPredictDenseWithinFactorTwo grades the planner's dense prices against
// the ledger: predictDenseRounds must land within a factor of two of the
// rounds each engine charges, and predictDenseWords within [⅔, 3/2] of the
// words — and on the 3D engine, whose exchanges are oblivious, both must
// equal the charge — the 3D engine on min-plus products (one word per
// entry) and
// packed Boolean ones, on cubes and non-cubes alike; the bilinear engine
// on the integer ring at its scheme sizes; the naive gather on min-plus;
// and both candidates of a bounded integer product (ring.PackedInt at 8
// and 15 bits, MulIntWith's widths for A² and A³ at n = 144), whose
// bilinear chunks of q and q/d entries pack far looser than a row of n.
// Both come from denseCost, the price the router compares engines at.
func TestPredictDenseWithinFactorTwo(t *testing.T) {
	rng := rand.New(rand.NewPCG(36, 1))
	for _, row := range []struct {
		name   string
		engine Engine
		sizes  []int
		a      *algebra[int64]
		run    func(net *clique.Network, p *Plan, mp *RowMat[int64], bl *RowMat[int64]) error
	}{
		{"3d/min-plus", Engine3D, []int{16, 24, 32, 64, 100, 144, 256, 300}, &minPlusAlgebra,
			func(net *clique.Network, _ *Plan, mp *RowMat[int64], _ *RowMat[int64]) error {
				_, err := Semiring3D[int64](net, nil, ring.MinPlus{}, ring.MinPlus{}, mp, mp)
				return err
			}},
		{"3d/packed-bool", Engine3D, []int{16, 24, 32, 64, 100, 144, 256, 300}, &boolAlgebra,
			func(net *clique.Network, _ *Plan, _ *RowMat[int64], bl *RowMat[int64]) error {
				_, err := Semiring3D[int64](net, nil, ring.Bool{}, ring.PackedBit{}, bl, bl)
				return err
			}},
		{"fast/int", EngineFast, []int{16, 36, 64, 100, 144, 196, 225, 256}, &intAlgebra,
			func(net *clique.Network, p *Plan, mp *RowMat[int64], _ *RowMat[int64]) error {
				_, err := FastBilinear[int64](net, nil, ring.Int64{}, ring.Int64{}, p.Scheme, mp, mp)
				return err
			}},
		{"naive/min-plus", EngineNaive, []int{16, 24, 32, 64, 100, 144, 256}, &minPlusAlgebra,
			func(net *clique.Network, _ *Plan, mp *RowMat[int64], _ *RowMat[int64]) error {
				_, err := NaiveGather[int64](net, nil, ring.MinPlus{}, ring.MinPlus{}, mp, mp)
				return err
			}},
		{"fast/int8", EngineFast, []int{16, 64, 144, 256}, &boundedIntAlgebras[8], runBoundedInt(EngineFast, 8)},
		{"fast/int15", EngineFast, []int{16, 64, 144, 256}, &boundedIntAlgebras[15], runBoundedInt(EngineFast, 15)},
		{"3d/int8", Engine3D, []int{16, 64, 144, 256}, &boundedIntAlgebras[8], runBoundedInt(Engine3D, 8)},
		{"3d/int15", Engine3D, []int{16, 64, 144, 256}, &boundedIntAlgebras[15], runBoundedInt(Engine3D, 15)},
	} {
		for _, n := range row.sizes {
			mp := NewRowMat[int64](n)
			bl := NewRowMat[int64](n)
			for v := range n {
				for j := range n {
					mp.Rows[v][j] = rng.Int64N(100)
					if rng.IntN(3) == 0 {
						bl.Rows[v][j] = 1
					}
				}
			}
			plan := PlanFor(n, row.engine)
			if row.engine == EngineFast && plan.Scheme == nil {
				t.Fatalf("%s n=%d: no bilinear scheme", row.name, n)
			}
			net := clique.New(n)
			if err := row.run(net, plan, mp, bl); err != nil {
				t.Fatalf("%s n=%d: %v", row.name, n, err)
			}
			pred, predW := denseCost(plan, row.a, row.engine)
			got, gotW := float64(net.Rounds()), float64(net.Words())
			t.Logf("%s n=%d: predicted %.1f rounds / %.0f words, charged %.0f / %.0f (%.2f / %.2f)",
				row.name, n, pred, predW, got, gotW, pred/got, predW/gotW)
			if pred < got/2 || pred > 2*got {
				t.Errorf("%s n=%d: predicted %.1f rounds, charged %.0f: outside [½, 2]", row.name, n, pred, got)
			}
			if predW < gotW*2/3 || predW > gotW*3/2 {
				t.Errorf("%s n=%d: predicted %.0f words, charged %.0f: outside [⅔, 3/2]", row.name, n, predW, gotW)
			}
			if row.engine == Engine3D && (pred != got || predW != gotW) {
				t.Errorf("%s n=%d: predicted %.0f rounds / %.0f words of an oblivious engine, charged %.0f / %.0f", row.name, n, pred, predW, got, gotW)
			}
		}
	}
}
