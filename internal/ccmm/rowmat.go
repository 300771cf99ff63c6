// Package ccmm implements the paper's congested-clique matrix
// multiplication algorithms (Theorem 1):
//
//   - Semiring3D: the "3D" algorithm — O(n^{1/3}) rounds over any semiring
//     and any clique size via the balanced cube layout (§2.1), with a
//     witness-producing variant for distance products.
//   - FastBilinear: the bilinear-scheme simulation — O(n^{1-2/σ}) rounds
//     over rings for a scheme with O(n^σ) multiplications (§2.2, Lemma 10).
//   - NaiveGather: the trivial O(n)-round baseline (every node learns the
//     whole right operand).
//
// Matrices are distributed one row per node (RowMat); this is the paper's
// input/output convention.
package ccmm

import (
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/algebraic-clique/algclique/internal/matrix"
)

// ErrSize reports an input whose dimensions are incompatible with the
// requested algorithm on the given clique.
var ErrSize = errors.New("incompatible size for congested-clique matrix multiplication")

// denseAllocs counts every NewRowMat call process-wide. Dense row matrices
// are the one Θ(n²) object the engines materialise, so the counter is the
// instrumentation the CSR operand plane's memory gate rests on: a product
// that claims to have stayed CSR end-to-end must leave it unchanged
// (ccbench's csr experiment hard-fails otherwise).
var denseAllocs atomic.Int64

// DenseAllocs returns the number of dense row matrices allocated by this
// process so far (see NewRowMat).
func DenseAllocs() int64 { return denseAllocs.Load() }

// RowMat is an n×n matrix distributed over an n-node clique: node v owns
// Rows[v].
type RowMat[T any] struct {
	Rows [][]T
}

// NewRowMat returns a distributed matrix with n zero-value rows of length n.
// The rows are cut from one backing array, each capped at its own extent —
// three allocations whatever n is — so they are independent slices that
// live and die together.
func NewRowMat[T any](n int) *RowMat[T] {
	denseAllocs.Add(1)
	b := make([]T, n*n)
	rows := make([][]T, n)
	for i := range rows {
		rows[i] = b[i*n : (i+1)*n : (i+1)*n]
	}
	return &RowMat[T]{Rows: rows}
}

// Distribute splits a square dense matrix into per-node rows (copied).
func Distribute[T any](m *matrix.Dense[T]) *RowMat[T] {
	if m.Rows() != m.Cols() {
		panic(fmt.Sprintf("ccmm: Distribute wants a square matrix, got %d×%d", m.Rows(), m.Cols()))
	}
	n := m.Rows()
	out := &RowMat[T]{Rows: make([][]T, n)}
	for v := 0; v < n; v++ {
		row := make([]T, n)
		copy(row, m.Row(v))
		out.Rows[v] = row
	}
	return out
}

// Collect assembles the distributed rows into a dense matrix (copied).
func (m *RowMat[T]) Collect() *matrix.Dense[T] {
	return matrix.FromRows(m.Rows)
}

// N returns the matrix dimension (= clique size).
func (m *RowMat[T]) N() int { return len(m.Rows) }

func (m *RowMat[T]) validate(n int) error {
	if len(m.Rows) != n {
		return fmt.Errorf("ccmm: matrix has %d rows on an %d-node clique: %w", len(m.Rows), n, ErrSize)
	}
	for v, r := range m.Rows {
		if len(r) != n {
			return fmt.Errorf("ccmm: row %d has %d entries, want %d: %w", v, len(r), n, ErrSize)
		}
	}
	return nil
}

// validatePair checks both operands of a product against the clique size.
func validatePair[T any](n int, s, t *RowMat[T]) error {
	if err := s.validate(n); err != nil {
		return err
	}
	return t.validate(n)
}
