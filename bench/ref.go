package main

import (
	"fmt"
	"slices"

	cc "github.com/algebraic-clique/algclique"
)

// The references below are centralised, written here, and share no code
// with the program under test: every answer a session, a server or an
// engine returns is compared against them (entry by entry on the cold call
// and after the measured window, by checksum on every call in between).
// Graph answers use the internal/graphs brute-force references, which the
// distributed algorithms never call.

// productKind selects the algebra of a matrix product.
type productKind int

const (
	mulInt productKind = iota
	mulBool
	mulMinPlus
)

// zero is the algebra's additive identity: what an unstored CSR entry and a
// padding entry mean.
func (k productKind) zero() int64 {
	if k == mulMinPlus {
		return cc.Inf
	}
	return 0
}

// one is the algebra's multiplicative identity: what a stored CSR entry
// without an explicit value means.
func (k productKind) one() int64 {
	if k == mulMinPlus {
		return 0
	}
	return 1
}

// refProduct is the schoolbook n³ product of two square matrices.
func refProduct(kind productKind, a, b cc.Mat) cc.Mat {
	n := len(a)
	out := make(cc.Mat, n)
	for i := range out {
		row := make([]int64, n)
		for j := range row {
			row[j] = kind.zero()
		}
		for k, x := range a[i] {
			if x == kind.zero() {
				continue
			}
			for j, y := range b[k] {
				switch kind {
				case mulInt:
					row[j] += x * y
				case mulBool:
					if y != 0 {
						row[j] = 1
					}
				case mulMinPlus:
					if y < cc.Inf && x+y < row[j] {
						row[j] = x + y
					}
				}
			}
		}
		out[i] = row
	}
	return out
}

// refCSRProduct multiplies two CSR matrices by expanding every row into
// (column, value) pairs, sorting them and folding equal columns.
func refCSRProduct(kind productKind, a, b *cc.CSR) *cc.CSR {
	type entry struct {
		col int32
		val int64
	}
	val := func(m *cc.CSR, i int64) int64 {
		if m.Val == nil {
			return kind.one()
		}
		return m.Val[i]
	}
	out := &cc.CSR{N: a.N, RowPtr: make([]int64, a.N+1)}
	var row []entry
	for v := 0; v < a.N; v++ {
		row = row[:0]
		for i := a.RowPtr[v]; i < a.RowPtr[v+1]; i++ {
			u, x := int(a.Col[i]), val(a, i)
			for j := b.RowPtr[u]; j < b.RowPtr[u+1]; j++ {
				y := val(b, j)
				switch kind {
				case mulInt:
					row = append(row, entry{b.Col[j], x * y})
				case mulBool:
					row = append(row, entry{b.Col[j], 1})
				case mulMinPlus:
					row = append(row, entry{b.Col[j], x + y})
				}
			}
		}
		slices.SortFunc(row, func(p, q entry) int { return int(p.col) - int(q.col) })
		for i := 0; i < len(row); {
			acc := row[i]
			for i++; i < len(row) && row[i].col == acc.col; i++ {
				switch kind {
				case mulInt:
					acc.val += row[i].val
				case mulMinPlus:
					acc.val = min(acc.val, row[i].val)
				}
			}
			if acc.val != kind.zero() {
				out.Col = append(out.Col, acc.col)
				out.Val = append(out.Val, acc.val)
			}
		}
		out.RowPtr[v+1] = int64(len(out.Col))
	}
	return out
}

// fnv folds one value into a running FNV-1a style checksum.
func fnv(h uint64, x uint64) uint64 { return (h ^ x) * 1099511628211 }

const fnvSeed = 14695981039346656037

// sumRows checksums the leading n×n block of a row-major matrix (what
// there is of it: a short answer just sums to something else).
func sumRows(rows [][]int64, n int) uint64 {
	h := uint64(fnvSeed)
	for _, row := range rows[:min(n, len(rows))] {
		for _, x := range row[:min(n, len(row))] {
			h = fnv(h, uint64(x))
		}
	}
	return h
}

// sumCSR checksums the first n rows of a CSR matrix in canonical form: a
// missing Val reads as the algebra's one, a malformed answer as 0.
func sumCSR(kind productKind, rowPtr []int64, col []int32, val []int64, n int) uint64 {
	if len(rowPtr) < n+1 || int64(len(col)) < rowPtr[n] || (val != nil && len(val) < len(col)) {
		return 0
	}
	h := uint64(fnvSeed)
	for v := 0; v < n; v++ {
		h = fnv(h, uint64(rowPtr[v+1]))
	}
	for i := int64(0); i < rowPtr[n]; i++ {
		h = fnv(h, uint64(col[i]))
		if val == nil {
			h = fnv(h, uint64(kind.one()))
		} else {
			h = fnv(h, uint64(val[i]))
		}
	}
	return h
}

// diffRows compares the leading n×n block of got against want entry by
// entry.
func diffRows(got [][]int64, want cc.Mat) error {
	n := len(want)
	if len(got) < n {
		return fmt.Errorf("result has %d rows, want %d", len(got), n)
	}
	for i := range want {
		if len(got[i]) < n {
			return fmt.Errorf("result row %d has %d entries, want %d", i, len(got[i]), n)
		}
		for j, w := range want[i] {
			if got[i][j] != w {
				return fmt.Errorf("entry [%d][%d] = %d, want %d", i, j, got[i][j], w)
			}
		}
	}
	return nil
}

// diffCSR compares the first want.N rows of a CSR result against want.
func diffCSR(kind productKind, rowPtr []int64, col []int32, val []int64, want *cc.CSR) error {
	n := want.N
	if len(rowPtr) < n+1 {
		return fmt.Errorf("result has %d row pointers, want %d", len(rowPtr), n+1)
	}
	for v := 0; v < n; v++ {
		if rowPtr[v+1] != want.RowPtr[v+1] {
			return fmt.Errorf("row %d ends at %d, want %d", v, rowPtr[v+1], want.RowPtr[v+1])
		}
	}
	if int64(len(col)) < want.RowPtr[n] || (val != nil && len(val) < len(col)) {
		return fmt.Errorf("result stores %d columns and %d values, want %d entries", len(col), len(val), want.RowPtr[n])
	}
	for i := int64(0); i < want.RowPtr[n]; i++ {
		if col[i] != want.Col[i] {
			return fmt.Errorf("stored entry %d is in column %d, want %d", i, col[i], want.Col[i])
		}
		got := kind.one()
		if val != nil {
			got = val[i]
		}
		if got != want.Val[i] {
			return fmt.Errorf("stored entry %d = %d, want %d", i, got, want.Val[i])
		}
	}
	return nil
}
