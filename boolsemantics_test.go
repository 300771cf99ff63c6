package algclique_test

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/algebraic-clique/algclique"
)

// boolEntries are the operand values a Boolean product must read as
// truth values: every nonzero entry is true, including negative ones that
// an integer embedding could cancel and ones whose sum could wrap a
// 32-bit accumulator.
var boolEntries = []int64{-2, -1, 0, 1, 2, 1 << 40}

// boolReference multiplies a and b over the Boolean semiring with x ≠ 0
// read as true.
func boolReference(a, b algclique.Mat) algclique.Mat {
	n := len(a)
	out := make(algclique.Mat, n)
	for u := range out {
		out[u] = make([]int64, n)
		for v := 0; v < n; v++ {
			for k := 0; k < n; k++ {
				if a[u][k] != 0 && b[k][v] != 0 {
					out[u][v] = 1
					break
				}
			}
		}
	}
	return out
}

// boolOperands returns the adversarial pair — a all ones but row 0 =
// [1, −1, 0, …], b all ones, whose (0, 0) entry an integer embedding
// computes as 1 − 1 — and a random pair drawn from boolEntries, with
// roughly perRow nonzeros per row when perRow > 0.
func boolOperands(rng *rand.Rand, n, perRow int) [][2]algclique.Mat {
	ones := func() algclique.Mat {
		m := make(algclique.Mat, n)
		for v := range m {
			m[v] = make([]int64, n)
			for j := range m[v] {
				m[v][j] = 1
			}
		}
		return m
	}
	a := ones()
	clear(a[0])
	a[0][0], a[0][1] = 1, -1
	draw := func() algclique.Mat {
		m := make(algclique.Mat, n)
		for v := range m {
			m[v] = make([]int64, n)
			if perRow > 0 {
				for k := 0; k < perRow; k++ {
					m[v][rng.IntN(n)] = boolEntries[rng.IntN(len(boolEntries))]
				}
				continue
			}
			for j := range m[v] {
				m[v][j] = boolEntries[rng.IntN(len(boolEntries))]
			}
		}
		return m
	}
	return [][2]algclique.Mat{{a, ones()}, {draw(), draw()}}
}

// TestBoolSemanticsAcrossEngines: MatMulBool and MatMulBoolCSR read every
// nonzero entry as true whichever engine runs — the bilinear integer
// embedding included — so every engine and both operand forms return the
// x ≠ 0 reference.
func TestBoolSemanticsAcrossEngines(t *testing.T) {
	type row struct {
		engine algclique.Engine
		n      int
		perRow int
	}
	var rows []row
	for _, e := range []algclique.Engine{algclique.Auto, algclique.Fast, algclique.Semiring3D, algclique.Naive} {
		for _, n := range []int{16, 24, 64} {
			rows = append(rows, row{e, n, 0})
		}
	}
	rows = append(rows, row{algclique.Sparse, 64, 2})
	for _, r := range rows {
		t.Run(fmt.Sprintf("%v/n=%d", r.engine, r.n), func(t *testing.T) {
			s, err := algclique.NewClique(r.n, algclique.WithEngine(r.engine))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			rng := rand.New(rand.NewPCG(uint64(r.n), uint64(r.engine)))
			for i, pair := range boolOperands(rng, r.n, r.perRow) {
				if r.perRow > 0 && i == 0 {
					continue // the all-ones pair is too dense for a forced sparse engine
				}
				a, b := pair[0], pair[1]
				want := boolReference(a, b)
				got, _, err := s.MatMulBool(a, b)
				if err != nil {
					t.Fatalf("pair %d: MatMulBool: %v", i, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("pair %d: MatMulBool differs from the x ≠ 0 reference", i)
				}
				ca, err := algclique.CSRFromMat(a, 0)
				if err != nil {
					t.Fatal(err)
				}
				cb, err := algclique.CSRFromMat(b, 0)
				if err != nil {
					t.Fatal(err)
				}
				p, _, err := s.MatMulBoolCSR(ca, cb)
				if err != nil {
					t.Fatalf("pair %d: MatMulBoolCSR: %v", i, err)
				}
				if got := expandProduct(p, 0, 1); !reflect.DeepEqual(got, want) {
					t.Errorf("pair %d: MatMulBoolCSR (sparse=%v) differs from the x ≠ 0 reference", i, p.IsSparse())
				}
			}
		})
	}
}
