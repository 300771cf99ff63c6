package ccmm

import (
	"fmt"
	"slices"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// This file is the CSR operand plane around the sparse tile engine
// (sparsemul.go), whose CSR form multiplies matrix.CSR operands in
// Θ(n + traffic) memory: node v logically owns row v of each operand,
// exactly the RowMat convention, but rows are CSR windows (column indices +
// values) rather than dense slices. Here are the form's two ends — operand
// validation, and the fold and assembly of its output into a fresh CSR
// (canonical: strictly increasing columns, no stored semiring zeros),
// bit-identical to compressing the dense engines' product because every
// shipped algebra's ⊕ is order-independent — and the planner's side of the
// plane: the result union and the pooled densification behind a dense
// route, with its cap.

// csrDensifyCap is the largest clique on which the density-aware CSR
// planner may fall back to a dense engine (which materialises Θ(n²)
// operands and product). Beyond it a too-dense product fails with
// ErrTooDense instead of silently allocating what the CSR plane exists to
// avoid; callers at that scale asked for sparse-or-nothing.
const csrDensifyCap = 8192

// CSRProduct is the result union of the density-aware CSR entry points:
// exactly one field is set. Sparse products stay CSR; products the planner
// routed (or fell back) to a dense engine come back as the dense row
// matrix that engine produced.
type CSRProduct[T any] struct {
	Sparse *matrix.CSR[T]
	Dense  *RowMat[T]
}

// IsSparse reports whether the product stayed on the CSR path.
func (p CSRProduct[T]) IsSparse() bool { return p.Sparse != nil }

// csrCheck validates a CSR operand against the clique size.
func csrCheck[T any](m *matrix.CSR[T], n int) error {
	if m.N != n {
		return fmt.Errorf("ccmm: %d×%d CSR operand on an %d-node clique: %w", m.N, m.N, n, ErrSize)
	}
	if err := m.Validate(); err != nil {
		return fmt.Errorf("ccmm: malformed CSR operand: %v: %w", err, ErrSize)
	}
	return nil
}

// csrFold sorts node x's received (z, v) tuples by column (stable), folds
// equal-column runs with the semiring addition, and drops sums equal to the
// semiring zero — keeping the output canonical, so it is bit-identical to
// compressing a dense engine's product row. Returns the folded prefix of
// acc.
func csrFold[T any](sr ring.Semiring[T], zero T, acc []ring.Tuple[T]) []ring.Tuple[T] {
	slices.SortStableFunc(acc, byIdx[T])
	out := acc[:0]
	for i := 0; i < len(acc); {
		v := acc[i].Val
		j := i + 1
		for ; j < len(acc) && acc[j].Idx == acc[i].Idx; j++ {
			v = sr.Add(v, acc[j].Val)
		}
		if !sr.Equal(v, zero) {
			out = append(out, ring.Tuple[T]{Idx: acc[i].Idx, Val: v})
		}
		i = j
	}
	return out
}

// csrAssemble builds the fresh output CSR from the folded rows: a
// single-threaded RowPtr prefix sum and a parallel flat copy. A value-free
// output (every stored entry the semiring one) gets no Val array. Outputs
// are never pooled.
func csrAssemble[T any](net *clique.Network, rows [][]ring.Tuple[T], valueFree bool) *matrix.CSR[T] {
	n := len(rows)
	out := matrix.NewCSR[T](n)
	for x, row := range rows {
		out.RowPtr[x+1] = out.RowPtr[x] + int64(len(row))
	}
	out.Col = make([]int32, out.RowPtr[n])
	if !valueFree {
		out.Val = make([]T, out.RowPtr[n])
	}
	net.ForEach(func(x int) {
		lo := out.RowPtr[x]
		for i, tp := range rows[x] {
			out.Col[lo+int64(i)] = tp.Idx
			if !valueFree {
				out.Val[lo+int64(i)] = tp.Val
			}
		}
	})
	return out
}

// csrExpand densifies a CSR operand into a pooled row matrix (fallback
// paths only — NewRowMat underneath is exactly what the dense-allocation
// gate watches, so a product that claims to have stayed CSR and didn't is
// caught even here).
func csrExpand[T any](net *clique.Network, sc *Scratch, zero, one T, m *matrix.CSR[T]) *RowMat[T] {
	out := GetMat[T](sc, m.N)
	net.ForEach(func(v int) {
		row := out.Rows[v]
		for j := range row {
			row[j] = zero
		}
		cols, vals := m.Row(v)
		for i, c := range cols {
			if vals == nil {
				row[c] = one
			} else {
				row[c] = vals[i]
			}
		}
	})
	return out
}

// densifyPair expands both operands for a dense-engine fallback; release
// returns the pooled matrices (engine results are fresh, never aliased).
func densifyPair[T any](net *clique.Network, sc *Scratch, zero, one T, s, t *matrix.CSR[T]) (sd, td *RowMat[T], release func()) {
	sd = csrExpand(net, sc, zero, one, s)
	td = csrExpand(net, sc, zero, one, t)
	return sd, td, func() { PutMat(sc, sd); PutMat(sc, td) }
}
