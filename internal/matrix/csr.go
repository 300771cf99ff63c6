package matrix

import "fmt"

// CSR is a square sparse matrix in compressed-sparse-row form: row v's
// entries are Col[RowPtr[v]:RowPtr[v+1]] (strictly increasing column
// indices) paired with Val[RowPtr[v]:RowPtr[v+1]]. Entries not stored are
// the algebra's zero — the caller's semiring decides what that means, so
// the same representation serves the integer ring (zero = 0), the Boolean
// semiring (zero = false), and min-plus (zero = +∞).
//
// The three backing arrays are flat and contiguous, so a CSR of ρ nonzeros
// on n rows occupies Θ(n + ρ) memory however large n² is — the property
// the CSR operand plane exists for. Col is int32 (indices below 2³¹, the
// same width ring.Tuple ships on the wire); RowPtr is int64 so ρ itself is
// unbounded.
type CSR[T any] struct {
	N      int
	RowPtr []int64
	Col    []int32
	Val    []T
}

// NewCSR returns an empty n×n CSR matrix (no entries, RowPtr all zero).
func NewCSR[T any](n int) *CSR[T] {
	return &CSR[T]{N: n, RowPtr: make([]int64, n+1)}
}

// NNZ returns the stored-entry count.
func (m *CSR[T]) NNZ() int64 {
	if len(m.RowPtr) == 0 {
		return 0
	}
	return m.RowPtr[m.N]
}

// RowNNZ returns the stored-entry count of row v — a pointer difference,
// which is why a density census over CSR operands costs no scan at all.
func (m *CSR[T]) RowNNZ(v int) int { return int(m.RowPtr[v+1] - m.RowPtr[v]) }

// Row returns row v's column indices and values as windows into the
// backing arrays (read-only for callers that do not own the matrix).
func (m *CSR[T]) Row(v int) ([]int32, []T) {
	lo, hi := m.RowPtr[v], m.RowPtr[v+1]
	if m.Val == nil {
		return m.Col[lo:hi], nil
	}
	return m.Col[lo:hi], m.Val[lo:hi]
}

// Validate checks the structural invariants: monotone row pointers,
// in-range strictly increasing columns per row, and value length matching
// the entry count (a nil Val is legal and means "all entries are the
// caller's one element" — adjacency matrices ship without values). The
// length checks come first, so the row walk never slices past what a
// malformed operand actually stores.
func (m *CSR[T]) Validate() error {
	n := m.N
	if n < 0 || len(m.RowPtr) != n+1 {
		return fmt.Errorf("matrix: CSR with %d rows has %d row pointers, want %d", n, len(m.RowPtr), n+1)
	}
	if m.RowPtr[0] != 0 {
		return fmt.Errorf("matrix: CSR row pointers start at %d, want 0", m.RowPtr[0])
	}
	nnz := int64(len(m.Col))
	if nnz != m.RowPtr[n] {
		return fmt.Errorf("matrix: CSR has %d columns stored, row pointers claim %d", nnz, m.RowPtr[n])
	}
	if m.Val != nil && len(m.Val) != len(m.Col) {
		return fmt.Errorf("matrix: CSR has %d values for %d columns", len(m.Val), len(m.Col))
	}
	for v := 0; v < n; v++ {
		lo, hi := m.RowPtr[v], m.RowPtr[v+1]
		if hi < lo {
			return fmt.Errorf("matrix: CSR row %d has negative extent [%d, %d)", v, lo, hi)
		}
		if hi > nnz {
			return fmt.Errorf("matrix: CSR row %d ends at %d, past the %d stored entries", v, hi, nnz)
		}
		prev := int32(-1)
		for _, c := range m.Col[lo:hi] {
			if c < 0 || int(c) >= n {
				return fmt.Errorf("matrix: CSR row %d has column %d out of range [0, %d)", v, c, n)
			}
			if c <= prev {
				return fmt.Errorf("matrix: CSR row %d columns not strictly increasing at %d", v, c)
			}
			prev = c
		}
	}
	return nil
}

// CSRFromDense compresses a dense matrix, keeping entries for which keep
// returns true (typically "not the semiring zero").
func CSRFromDense[T any](m *Dense[T], keep func(T) bool) *CSR[T] {
	if m.Rows() != m.Cols() {
		panic(fmt.Sprintf("matrix: CSRFromDense wants a square matrix, got %d×%d", m.Rows(), m.Cols()))
	}
	n := m.Rows()
	out := NewCSR[T](n)
	for v := 0; v < n; v++ {
		for j, x := range m.Row(v) {
			if keep(x) {
				out.Col = append(out.Col, int32(j))
				out.Val = append(out.Val, x)
			}
		}
		out.RowPtr[v+1] = int64(len(out.Col))
	}
	return out
}

// Dense expands the CSR matrix, filling unset entries with zero and unset
// values (nil Val) with one.
func (m *CSR[T]) Dense(zero, one T) *Dense[T] {
	d := NewFilled[T](m.N, m.N, zero)
	for v := 0; v < m.N; v++ {
		cols, vals := m.Row(v)
		row := d.Row(v)
		for i, c := range cols {
			if vals == nil {
				row[c] = one
			} else {
				row[c] = vals[i]
			}
		}
	}
	return d
}
