// Package matrix provides dense matrices over generic semirings, the
// school-book product (with fast paths for the common algebras), block
// manipulation helpers used by the distributed algorithms, and a sequential
// Strassen implementation over arbitrary rings.
package matrix

import (
	"fmt"

	"github.com/algebraic-clique/algclique/internal/ring"
)

// Dense is a row-major dense matrix over an arbitrary element type.
// The zero value is an empty 0×0 matrix.
type Dense[T any] struct {
	rows, cols int
	e          []T
}

// New returns a rows×cols matrix whose entries are the zero value of T.
// The caller is responsible for filling semiring zeroes if they differ from
// Go's zero value (use NewFilled for that).
func New[T any](rows, cols int) *Dense[T] {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %d×%d", rows, cols))
	}
	return &Dense[T]{rows: rows, cols: cols, e: make([]T, rows*cols)}
}

// NewWindows returns k rows×cols matrices cut from one backing array, their
// entries the zero value of T: two heap objects however large k is, where k
// calls of New make 2k. The matrices are independent — each window is
// capped at its own extent — but live and die together.
func NewWindows[T any](k, rows, cols int) []Dense[T] {
	if k < 0 || rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative dimension %d of %d×%d", k, rows, cols))
	}
	sz := rows * cols
	arena := make([]T, k*sz)
	ms := make([]Dense[T], k)
	for i := range ms {
		ms[i] = Dense[T]{rows: rows, cols: cols, e: arena[i*sz : (i+1)*sz : (i+1)*sz]}
	}
	return ms
}

// NewFilled returns a rows×cols matrix with every entry set to fill.
func NewFilled[T any](rows, cols int, fill T) *Dense[T] {
	m := New[T](rows, cols)
	for i := range m.e {
		m.e[i] = fill
	}
	return m
}

// Zeros returns a rows×cols matrix filled with the semiring zero.
func Zeros[T any](r ring.Semiring[T], rows, cols int) *Dense[T] {
	return NewFilled[T](rows, cols, r.Zero())
}

// FromRows builds a matrix from a slice of equal-length rows. The rows are
// copied.
func FromRows[T any](rows [][]T) *Dense[T] {
	if len(rows) == 0 {
		return New[T](0, 0)
	}
	c := len(rows[0])
	m := New[T](len(rows), c)
	for i, r := range rows {
		if len(r) != c {
			panic(fmt.Sprintf("matrix: ragged rows: row 0 has %d cols, row %d has %d", c, i, len(r)))
		}
		copy(m.e[i*c:(i+1)*c], r)
	}
	return m
}

// Rows returns the number of rows.
func (m *Dense[T]) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Dense[T]) Cols() int { return m.cols }

// At returns the entry at (i, j).
func (m *Dense[T]) At(i, j int) T {
	m.check(i, j)
	return m.e[i*m.cols+j]
}

// Set assigns the entry at (i, j).
func (m *Dense[T]) Set(i, j int, v T) {
	m.check(i, j)
	m.e[i*m.cols+j] = v
}

func (m *Dense[T]) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: index (%d, %d) out of %d×%d", i, j, m.rows, m.cols))
	}
}

// Row returns row i as a live slice into the matrix backing store. Callers
// that retain the slice must not resize the matrix (matrices never resize).
func (m *Dense[T]) Row(i int) []T {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: row %d out of %d", i, m.rows))
	}
	return m.e[i*m.cols : (i+1)*m.cols]
}

// SetRow copies v into row i.
func (m *Dense[T]) SetRow(i int, v []T) {
	if len(v) != m.cols {
		panic(fmt.Sprintf("matrix: SetRow length %d != cols %d", len(v), m.cols))
	}
	copy(m.Row(i), v)
}

// Clone returns a deep copy.
func (m *Dense[T]) Clone() *Dense[T] {
	out := New[T](m.rows, m.cols)
	copy(out.e, m.e)
	return out
}

// Sub returns a copy of the block with rows [r0, r1) and columns [c0, c1).
func (m *Dense[T]) Sub(r0, r1, c0, c1 int) *Dense[T] {
	if r0 < 0 || r1 > m.rows || c0 < 0 || c1 > m.cols || r0 > r1 || c0 > c1 {
		panic(fmt.Sprintf("matrix: bad block [%d:%d, %d:%d) of %d×%d", r0, r1, c0, c1, m.rows, m.cols))
	}
	out := New[T](r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Row(i-r0), m.e[i*m.cols+c0:i*m.cols+c1])
	}
	return out
}

// SetSub copies block into m with its top-left corner at (r0, c0).
func (m *Dense[T]) SetSub(r0, c0 int, block *Dense[T]) {
	if r0 < 0 || c0 < 0 || r0+block.rows > m.rows || c0+block.cols > m.cols {
		panic(fmt.Sprintf("matrix: block %d×%d at (%d, %d) exceeds %d×%d",
			block.rows, block.cols, r0, c0, m.rows, m.cols))
	}
	for i := 0; i < block.rows; i++ {
		copy(m.e[(r0+i)*m.cols+c0:(r0+i)*m.cols+c0+block.cols], block.Row(i))
	}
}

// Equal reports whether a and b have the same shape and equal entries under
// the semiring's equality.
func Equal[T any](r ring.Semiring[T], a, b *Dense[T]) bool {
	if a.rows != b.rows || a.cols != b.cols {
		return false
	}
	for i := range a.e {
		if !r.Equal(a.e[i], b.e[i]) {
			return false
		}
	}
	return true
}
