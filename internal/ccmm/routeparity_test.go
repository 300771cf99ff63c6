package ccmm_test

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// parityAlgebra is one of the three typed products on both operand forms.
type parityAlgebra struct {
	name   string
	zero   int64 // the entry a CSR operand leaves out
	maxVal int64 // nonzero entries are drawn from [1, maxVal]
	valued bool  // sparse CSR products carry values (Boolean ones do not)
	mul    func(p *ccmm.Plan, net *clique.Network, sc *ccmm.Scratch, s, t *ccmm.RowMat[int64]) (*ccmm.RowMat[int64], ccmm.Route, error)
	mulCSR func(p *ccmm.Plan, net *clique.Network, sc *ccmm.Scratch, s, t *matrix.CSR[int64]) (ccmm.CSRProduct[int64], ccmm.Route, error)
}

var parityAlgebras = []parityAlgebra{
	{"int", 0, 50, true, (*ccmm.Plan).MulIntRouted, (*ccmm.Plan).MulIntCSRRouted},
	{"bool", 0, 1, false, (*ccmm.Plan).MulBoolRouted, (*ccmm.Plan).MulBoolCSRRouted},
	{"min-plus", ring.Inf, 50, true, (*ccmm.Plan).MulMinPlusRouted, (*ccmm.Plan).MulMinPlusCSRRouted},
}

// gnpMat draws an n×n matrix whose entries are nonzero with probability
// deg/n, so rows average deg nonzeros; everything else is zero.
func gnpMat(rng *rand.Rand, n int, deg float64, zero, maxVal int64) *ccmm.RowMat[int64] {
	m := ccmm.NewRowMat[int64](n)
	for _, row := range m.Rows {
		for j := range row {
			row[j] = zero
			if rng.Float64()*float64(n) < deg {
				row[j] = 1 + rng.Int64N(maxVal)
			}
		}
	}
	return m
}

// parityCase runs one product as RowMat and as CSR on fresh networks armed
// by arm (nil leaves them unarmed) and requires equal routes, equal errors
// up to errors.Is on want, equal ledgers — rounds, words, flushes and every
// phase — and equal products.
func parityCase(t *testing.T, alg parityAlgebra, e ccmm.Engine, arm func(*clique.Network), s, u *ccmm.RowMat[int64], want error) ccmm.Route {
	t.Helper()
	n := s.N()
	p := ccmm.PlanFor(n, e)
	keep := func(x int64) bool { return x != alg.zero }
	nets := [2]*clique.Network{clique.New(n), clique.New(n)}
	for _, net := range nets {
		defer net.Close()
		if arm != nil {
			arm(net)
		}
	}
	dense, rt, err := alg.mul(p, nets[0], nil, s, u)
	prod, rtCSR, errCSR := alg.mulCSR(p, nets[1], nil, csrOf(s, keep), csrOf(u, keep))
	if !errors.Is(err, want) || !errors.Is(errCSR, want) {
		t.Fatalf("errors: RowMat %v, CSR %v, want %v", err, errCSR, want)
	}
	if rt != rtCSR {
		t.Fatalf("routes differ: RowMat %+v, CSR %+v", rt, rtCSR)
	}
	if st, stCSR := nets[0].Stats(), nets[1].Stats(); !reflect.DeepEqual(st, stCSR) {
		t.Fatalf("ledgers differ on route %+v:\nRowMat %+v\nCSR    %+v", rt, st, stCSR)
	}
	if want != nil {
		return rt
	}
	if prod.IsSparse() != (rt.Engine == ccmm.EngineSparse) {
		t.Fatalf("CSR product sparse = %v on route %+v", prod.IsSparse(), rt)
	}
	if !prod.IsSparse() {
		if !slices.EqualFunc(prod.Dense.Rows, dense.Rows, slices.Equal[[]int64]) {
			t.Fatalf("densified CSR product differs from the RowMat product (route %+v)", rt)
		}
		return rt
	}
	ref := csrOf(dense, keep)
	if !slices.Equal(prod.Sparse.RowPtr, ref.RowPtr) || !slices.Equal(prod.Sparse.Col, ref.Col) {
		t.Fatalf("sparse CSR product structure differs from the RowMat product (route %+v)", rt)
	}
	if alg.valued && !slices.Equal(prod.Sparse.Val, ref.Val) {
		t.Fatalf("sparse CSR product values differ from the RowMat product (route %+v)", rt)
	}
	if !alg.valued && prod.Sparse.Val != nil {
		t.Fatal("sparse Boolean CSR product carries values; want nil Val")
	}
	return rt
}

// TestRouteParity is the router's one property: the same operands as RowMat
// and as CSR take the same route — engine, census, ρ_A, ρ_B, fallback —
// charge the same ledger and give the same product, for every algebra,
// across clique sizes and densities from empty to n/2 per row, and on every
// rung of the ladder.
func TestRouteParity(t *testing.T) {
	for _, alg := range parityAlgebras {
		for _, n := range []int{8, 27, 64, 100, 144} {
			degs := []float64{0, 0.5}
			for d := 1; d < n/2; d *= 2 {
				degs = append(degs, float64(d))
			}
			degs = append(degs, float64(n)/2)
			for _, deg := range degs {
				t.Run(fmt.Sprintf("%s/n=%d/deg=%g", alg.name, n, deg), func(t *testing.T) {
					rng := rand.New(rand.NewPCG(uint64(n), uint64(deg*2)))
					s := gnpMat(rng, n, deg, alg.zero, alg.maxVal)
					u := gnpMat(rng, n, deg, alg.zero, alg.maxVal)
					rt := parityCase(t, alg, ccmm.EngineAuto, nil, s, u, nil)
					if !rt.Census {
						t.Fatalf("auto route ran no census: %+v", rt)
					}
					if deg == 0 && (rt.Engine != ccmm.EngineSparse || rt.RhoA != 0 || rt.RhoB != 0) {
						t.Fatalf("empty operands route = %+v, want sparse with ρ = 0", rt)
					}
				})
			}
		}

		const n = 100
		rng := rand.New(rand.NewPCG(21, 22))
		sparse := gnpMat(rng, n, 4, alg.zero, alg.maxVal)
		full := gnpMat(rng, n, float64(n), alg.zero, alg.maxVal)
		// Sparse by row counts, too dense by column weights: the planner
		// predicts sparse and the engine's exact census refutes it.
		skewS := gnpMat(rng, n, 0, alg.zero, alg.maxVal)
		skewT := gnpMat(rng, n, 0, alg.zero, alg.maxVal)
		for v := 0; v < n; v++ {
			skewS.Rows[v][0], skewS.Rows[v][1] = 1, 1
			skewT.Rows[0][v], skewT.Rows[1][v] = 1, 1
		}
		off := func(th float64) func(*clique.Network) {
			return func(net *clique.Network) { net.SetSparseThreshold(th) }
		}
		// The engine a dense-routed Auto product runs: 3D for a Boolean one
		// (bit-packed block rows beat the bilinear engine's integer
		// embedding on rounds and words), the plan's resolved engine for
		// the other two.
		dense := ccmm.AutoDenseEngine(n, alg.name)
		for _, row := range []struct {
			name   string
			engine ccmm.Engine
			arm    func(*clique.Network)
			s, u   *ccmm.RowMat[int64]
			want   ccmm.Route
			err    error
		}{
			{"forced-sparse", ccmm.EngineSparse, nil, sparse, sparse, ccmm.Route{Engine: ccmm.EngineSparse}, nil},
			{"forced-sparse-too-dense", ccmm.EngineSparse, nil, full, full, ccmm.Route{Engine: ccmm.EngineSparse}, ccmm.ErrTooDense},
			{"forced-3d", ccmm.Engine3D, nil, sparse, sparse, ccmm.Route{Engine: ccmm.Engine3D}, nil},
			{"threshold-0", ccmm.EngineAuto, off(0), sparse, sparse, ccmm.Route{Engine: dense}, nil},
			{"threshold-negative", ccmm.EngineAuto, off(-1), sparse, sparse, ccmm.Route{Engine: dense}, nil},
			{"threshold-NaN", ccmm.EngineAuto, off(math.NaN()), sparse, sparse, ccmm.Route{Engine: dense}, nil},
			{"dense-via-census", ccmm.EngineAuto, nil, full, full, ccmm.Route{Engine: dense, Census: true}, nil},
			{"dense-fallback", ccmm.EngineAuto, nil, skewS, skewT, ccmm.Route{Engine: dense, Census: true, Fallback: true}, nil},
		} {
			t.Run(alg.name+"/"+row.name, func(t *testing.T) {
				rt := parityCase(t, alg, row.engine, row.arm, row.s, row.u, row.err)
				// Pinned by parity, not by the row.
				rt.RhoA, rt.RhoB, rt.PredictedRounds, rt.PredictedWords = 0, 0, 0, 0
				if rt != row.want {
					t.Fatalf("route = %+v, want %+v", rt, row.want)
				}
			})
		}
	}

	// The densify cap is the one rung only the CSR form has. Above it no
	// dense engine may run: with the census off the product errors instead
	// of allocating Θ(n²), and with any positive threshold — however small,
	// so the prediction would have said dense — it skips the census and runs
	// the sparse engine.
	t.Run("densify-cap", func(t *testing.T) {
		const n = 8200 // above the 8192 cap; sparse-link network, so cheap
		p := ccmm.PlanFor(n, ccmm.EngineAuto)
		net := clique.New(n)
		defer net.Close()
		net.SetSparseThreshold(0) // census off → dense route
		empty := matrix.NewCSR[int64](n)
		_, rt, err := p.MulIntCSRRouted(net, nil, empty, empty)
		if !errors.Is(err, ccmm.ErrTooDense) || rt.Census {
			t.Fatalf("densify above cap: route %+v, err %v, want ErrTooDense without census", rt, err)
		}

		// A 100-entry operand whose square has 100 entries of its own:
		// A[i][(7i+1) mod n] = i+1 for i < 100, so A² holds (i+1)·(j+1) at
		// (i, (7j+1) mod n) exactly when j = (7i+1) mod n is below 100.
		a := matrix.NewCSR[int64](n)
		for i := 0; i < n; i++ {
			if i < 100 {
				a.Col = append(a.Col, int32((7*i+1)%n))
				a.Val = append(a.Val, int64(i+1))
			}
			a.RowPtr[i+1] = int64(len(a.Col))
		}
		want := map[[2]int]int64{}
		for i := 0; i < 100; i++ {
			if j := (7*i + 1) % n; j < 100 {
				want[[2]int{i, (7*j + 1) % n}] = int64(i+1) * int64(j+1)
			}
		}
		net.Reset()
		net.SetSparseThreshold(1e-6)
		got, rt, err := p.MulIntCSRRouted(net, nil, a, a)
		if err != nil || rt != (ccmm.Route{Engine: ccmm.EngineSparse}) || !got.IsSparse() {
			t.Fatalf("above the cap: route %+v, err %v, want the sparse engine without a census", rt, err)
		}
		if got.Sparse.NNZ() != int64(len(want)) {
			t.Fatalf("above the cap: %d entries, want %d", got.Sparse.NNZ(), len(want))
		}
		for x := 0; x < n; x++ {
			cols, vals := got.Sparse.Row(x)
			for k, z := range cols {
				if w := want[[2]int{x, int(z)}]; vals[k] != w {
					t.Fatalf("above the cap: A²[%d][%d] = %d, want %d", x, z, vals[k], w)
				}
			}
		}
		for _, ph := range net.Stats().Phases {
			if ph.Name == "mmplan/census" {
				t.Fatalf("above the cap: the planner's census ran (%+v)", ph)
			}
		}
	})
}
