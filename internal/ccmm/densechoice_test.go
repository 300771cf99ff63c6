package ccmm

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// randomOperand draws an n×n operand whose entries differ from zero with
// probability deg/n — 1 for a Boolean operand, drawn from [1, 50]
// otherwise — and are zero elsewhere.
func randomOperand(rng *rand.Rand, n int, deg float64, zero int64, boolean bool) *RowMat[int64] {
	m := NewRowMat[int64](n)
	for _, row := range m.Rows {
		for j := range row {
			row[j] = zero
			if rng.Float64()*float64(n) < deg {
				row[j] = 1
				if !boolean {
					row[j] += rng.Int64N(50)
				}
			}
		}
	}
	return m
}

// TestDenseChoiceMatchesCharges grades the dense engine an Auto plan picks
// against what the two candidates charge: on every scheme size probed, a
// dense integer, Boolean or bounded integer product runs both FastBilinear
// and Semiring3D on fresh networks, and denseEngine must pick 3D exactly
// when 3D charged fewer rounds and no more words, and denseCharge, which
// it compares, must price both engines exactly. The truth it pins, with
// both engines' oblivious exchanges on the cheaper of the stripe and the
// König assignment: every Boolean product goes 3D (bit-packed block rows
// against a one-word integer embedding), no full-width integer one does
// (where 3D saves rounds, at n = 100, 196 and 256, it costs two to three
// times the words; at n = 16 it charges 19 rounds against 18), and a
// bounded integer product (ring.PackedInt) goes 3D at 8 bits on n = 16,
// 64 and 144 and at 15 bits on n = 16 and 64 — at n = 64, 6 rounds and
// 23 045 words against the bilinear engine's 10 and 23 562. Min-plus is
// not a ring and never reaches the bilinear engine, whatever the size.
func TestDenseChoiceMatchesCharges(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 1))
	for _, alg := range []struct {
		name    string
		a       *algebra[int64]
		want3D  []int // the sizes at which 3D wins
		boolean bool
	}{
		{"int", &intAlgebra, nil, false},
		{"bool", &boolAlgebra, []int{16, 64, 100, 144, 196, 256}, true},
		{"int8", &boundedIntAlgebras[8], []int{16, 64, 144}, true},
		{"int15", &boundedIntAlgebras[15], []int{16, 64}, true},
	} {
		for _, n := range []int{16, 64, 100, 144, 196, 256} {
			t.Run(fmt.Sprintf("%s/n=%d", alg.name, n), func(t *testing.T) {
				s := randomOperand(rng, n, float64(n)/2, 0, alg.boolean)
				u := randomOperand(rng, n, float64(n)/2, 0, alg.boolean)
				var rounds, words [2]int64
				var prods [2]*RowMat[int64]
				for i, e := range []Engine{EngineFast, Engine3D} {
					net := clique.New(n)
					defer net.Close()
					p, err := alg.a.dense(net, PlanFor(n, e), ScratchOf(net), e, s, u)
					if err != nil {
						t.Fatalf("%v: %v", e, err)
					}
					rounds[i], words[i], prods[i] = net.Rounds(), net.Words(), p
				}
				for v := range n {
					for j := range n {
						if prods[0].Rows[v][j] != prods[1].Rows[v][j] {
							t.Fatalf("fast and 3D products differ at (%d, %d)", v, j)
						}
					}
				}
				auto := PlanFor(n, EngineAuto)
				if auto.RingEngine != EngineFast {
					t.Fatalf("no bilinear scheme at n = %d: plan %v", n, auto)
				}
				for i, e := range []Engine{EngineFast, Engine3D} {
					r, w := auto.denseCharge(e, func(k int) float64 { return alg.a.entryWords(e, k) })
					if r != float64(rounds[i]) || w != float64(words[i]) {
						t.Errorf("%v: denseCharge %.0f rounds / %.0f words, charged %d / %d", e, r, w, rounds[i], words[i])
					}
				}
				got := denseEngine(auto, alg.a, auto.RingEngine)
				charged3D := rounds[1] < rounds[0] && words[1] <= words[0]
				t.Logf("fast %d/%d, 3d %d/%d rounds/words: auto picks %v", rounds[0], words[0], rounds[1], words[1], got)
				if (got == Engine3D) != charged3D {
					t.Errorf("auto picks %v; 3D charged %d/%d against fast's %d/%d", got, rounds[1], words[1], rounds[0], words[0])
				}
				if want := slices.Contains(alg.want3D, n); (got == Engine3D) != want {
					t.Errorf("auto picks %v for %s at n = %d, want 3D = %v", got, alg.name, n, want)
				}
			})
		}
	}

	for n := 1; n <= 400; n++ {
		p := PlanFor(n, EngineAuto)
		if e := denseEngine(p, &minPlusAlgebra, p.SemiringEngine); e == EngineFast {
			t.Fatalf("n=%d: a min-plus product resolved to the bilinear engine", n)
		}
	}
	const n = 64
	s := randomOperand(rng, n, n, ring.Inf, false)
	net := clique.New(n)
	defer net.Close()
	if _, rt, err := PlanFor(n, EngineAuto).MulMinPlusRouted(net, nil, s, s); err != nil || rt.Engine != Engine3D {
		t.Fatalf("dense min-plus product at n = %d: route %+v, err %v; want the 3D engine", n, rt, err)
	}
}

// TestPredictSparseWithinFactorTwo grades the router's sparse price: on
// GNP operands at average degree 0.5 to 8, predictSparseRounds from the
// operands' nonzero counts must land within a factor of two of the rounds
// the sparse tile engine charges, for all three typed algebras. The
// estimate runs high (up to 1.8 on Boolean operands, whose bit-packed
// tuples finish sooner), as sparseLoadFactor intends: a borderline product
// stays dense.
func TestPredictSparseWithinFactorTwo(t *testing.T) {
	for _, alg := range []struct {
		name    string
		a       *algebra[int64]
		zero    int64
		boolean bool
	}{
		{"int", &intAlgebra, 0, false},
		{"bool", &boolAlgebra, 0, true},
		{"min-plus", &minPlusAlgebra, ring.Inf, false},
	} {
		for _, n := range []int{64, 100, 144, 256} {
			for _, deg := range []float64{0.5, 1, 2, 4, 8} {
				rng := rand.New(rand.NewPCG(uint64(n), uint64(deg*2)))
				s := randomOperand(rng, n, deg, alg.zero, alg.boolean)
				u := randomOperand(rng, n, deg, alg.zero, alg.boolean)
				var rhoA, rhoB int64
				for v := range n {
					for j := range n {
						if s.Rows[v][j] != alg.zero {
							rhoA++
						}
						if u.Rows[v][j] != alg.zero {
							rhoB++
						}
					}
				}
				net := clique.New(n)
				if _, err := alg.a.sparse(net, ScratchOf(net), s, u); err != nil {
					t.Fatalf("%s n=%d deg=%g: %v", alg.name, n, deg, err)
				}
				pred, got := predictSparseRounds(n, rhoA, rhoB, alg.a.tupleWords), float64(net.Rounds())
				t.Logf("%s n=%d deg=%g: ρ = %d·%d, predicted %.1f, charged %.0f (%.2f)", alg.name, n, deg, rhoA, rhoB, pred, got, pred/got)
				if pred < got/2 || pred > 2*got {
					t.Errorf("%s n=%d deg=%g: predicted %.1f rounds, charged %.0f: outside [½, 2]", alg.name, n, deg, pred, got)
				}
				net.Close()
			}
		}
	}
}
