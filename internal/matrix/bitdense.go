package matrix

import (
	"fmt"
	"math/bits"
	"sync"

	"github.com/algebraic-clique/algclique/internal/ring"
)

// BitDense is a packed Boolean matrix: each row is ⌈cols/64⌉ words with
// element j in bit j%64 of word j/64 — exactly the layout of the
// ring.PackedBit transport and graphs.Bitset, so rows move between the
// wire, the graph representation, and the local kernels without any bit
// shuffling.
//
// The pad bits past cols in each row's last word are always zero; every
// mutator maintains the invariant and the kernels rely on it.
//
// BitDense carries a lazily-computed cache of which rows are nonzero (the
// bAny occupancy vector the scalar Boolean kernel used to rebuild with an
// O(n²) scan on every call). The cache is computed word-parallel on first
// use and survives until a mutator invalidates it, so iterated products
// against the same operand pay for the scan once. NonzeroRows is not safe
// for concurrent first use — parallel callers must compute it before
// fanning out.
type BitDense struct {
	rows, cols int
	stride     int      // words per row: ⌈cols/64⌉
	w          []uint64 // rows*stride words, row i at w[i*stride:(i+1)*stride]
	rowAny     []uint64 // bitset over rows: bit i set iff row i has a set bit
	anyValid   bool
}

// NewBitDense returns an all-false rows×cols packed Boolean matrix.
func NewBitDense(rows, cols int) *BitDense {
	m := &BitDense{}
	m.Reset(rows, cols)
	m.Zero()
	return m
}

// Reset reshapes m to rows×cols reusing the backing storage when it is
// large enough. The contents are undefined until every row is written
// (PackDense or a kernel that overwrites its destination);
// use Zero to clear explicitly.
//
//cc:hotpath
func (m *BitDense) Reset(rows, cols int) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("matrix: negative BitDense dimension %d×%d", rows, cols))
	}
	stride := (cols + 63) / 64
	need := rows * stride
	if cap(m.w) < need {
		m.w = make([]uint64, need) //cc:hotalloc-ok(capacity growth)
	}
	m.w = m.w[:need]
	m.rows, m.cols, m.stride = rows, cols, stride
	m.anyValid = false
}

// Zero clears every entry.
func (m *BitDense) Zero() {
	for i := range m.w {
		m.w[i] = 0
	}
	m.anyValid = false
}

// Rows returns the number of rows.
func (m *BitDense) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *BitDense) Cols() int { return m.cols }

// Stride returns the number of words per row, ⌈cols/64⌉ — the length of
// every RowWords slice and of a PackedBit encoding of one row.
func (m *BitDense) Stride() int { return m.stride }

// RowWords returns row i's packed words as a live slice into the backing
// store. Callers that write through it must call Invalidate afterwards and
// keep the pad bits zero.
//
//cc:hotpath
func (m *BitDense) RowWords(i int) []uint64 {
	if i < 0 || i >= m.rows {
		panic(fmt.Sprintf("matrix: BitDense row %d out of %d", i, m.rows))
	}
	return m.w[i*m.stride : (i+1)*m.stride]
}

// Invalidate drops the nonzero-row cache; callers that mutate rows through
// RowWords call it once after writing.
func (m *BitDense) Invalidate() { m.anyValid = false }

// Set assigns the entry at (i, j).
func (m *BitDense) Set(i, j int, v bool) {
	m.check(i, j)
	if v {
		m.w[i*m.stride+j>>6] |= 1 << (uint(j) & 63)
	} else {
		m.w[i*m.stride+j>>6] &^= 1 << (uint(j) & 63)
	}
	m.anyValid = false
}

func (m *BitDense) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("matrix: BitDense index (%d, %d) out of %d×%d", i, j, m.rows, m.cols))
	}
}

// PackDense packs src into dst (reshaping dst as needed): entry (i, j) is
// set exactly when src's is non-zero.
func PackDense(dst *BitDense, src *Dense[int64]) {
	dst.Reset(src.rows, src.cols)
	for i := 0; i < src.rows; i++ {
		ring.PackedBit{}.EncodeSlice(dst.RowWords(i)[:0], src.Row(i))
	}
}

// UnpackDense unpacks src into dst as 0/1 entries; dst must already have
// src's shape.
func UnpackDense(dst *Dense[int64], src *BitDense) {
	if dst.rows != src.rows || dst.cols != src.cols {
		panic(fmt.Sprintf("matrix: UnpackDense %d×%d into %d×%d", src.rows, src.cols, dst.rows, dst.cols))
	}
	for i := 0; i < src.rows; i++ {
		ring.PackedBit{}.DecodeSlice(dst.Row(i), src.RowWords(i))
	}
}

// NonzeroRows returns the cached bitset over row indices with bit i set
// exactly when row i has at least one true entry, computing it word-parallel
// on first use after a mutation. The returned slice is owned by m and valid
// until the next mutation.
//
//cc:hotpath
func (m *BitDense) NonzeroRows() []uint64 {
	nw := (m.rows + 63) / 64
	if m.anyValid {
		return m.rowAny[:nw]
	}
	if cap(m.rowAny) < nw {
		m.rowAny = make([]uint64, nw) //cc:hotalloc-ok(capacity growth)
	}
	ra := m.rowAny[:nw]
	for i := range ra {
		ra[i] = 0
	}
	for i := 0; i < m.rows; i++ {
		row := m.w[i*m.stride : (i+1)*m.stride]
		var acc uint64
		for _, wd := range row {
			acc |= wd
		}
		if acc != 0 {
			ra[i>>6] |= 1 << (uint(i) & 63)
		}
	}
	m.rowAny = ra
	m.anyValid = true
	return ra
}

// MulBitInto computes the Boolean product a·b into out, overwriting every
// entry. It is the word-parallel form of the Boolean kernel (Four-Russians
// style: the row of a is AND-masked against b's nonzero-row bitset, and the
// selected rows of b are OR-merged 64 columns per word operation), turning
// the scalar kernel's O(n³) element steps into ~n³/64 word steps. out must
// not alias a or b. Boolean OR is idempotent and commutative, so the result
// is bit-identical to the scalar and generic kernels by construction.
//
//cc:hotpath
func MulBitInto(out, a, b *BitDense) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("matrix: MulBitInto %d×%d by %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	if out.rows != a.rows || out.cols != b.cols {
		panic(fmt.Sprintf("matrix: MulBitInto destination %d×%d for a %d×%d product",
			out.rows, out.cols, a.rows, b.cols))
	}
	bAny := b.NonzeroRows()
	for i := 0; i < a.rows; i++ {
		MulBitRowInto(out.RowWords(i), a.RowWords(i), bAny, b)
	}
	out.anyValid = false
}

// MulBitRowInto computes one output row of a Boolean product: dst (length
// b.Stride, fully overwritten) receives the OR of b's rows selected by the
// set bits of the packed row arow, pre-masked by bAny = b.NonzeroRows().
// It is the row form the naive engine uses to multiply a node's own packed
// row against the gathered operand.
//
//cc:hotpath
func MulBitRowInto(dst []uint64, arow []uint64, bAny []uint64, b *BitDense) {
	for i := range dst {
		dst[i] = 0
	}
	for kw, aw := range arow {
		aw &= bAny[kw]
		base := kw << 6
		for aw != 0 {
			k := base + bits.TrailingZeros64(aw)
			aw &= aw - 1
			orWords(dst, b.w[k*b.stride:(k+1)*b.stride])
		}
	}
}

// orWords ORs src into dst word-wise, 4×-unrolled. len(src) must be at
// least len(dst).
//
//cc:hotpath
func orWords(dst, src []uint64) {
	n := len(dst)
	src = src[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		dst[j] |= src[j]
		dst[j+1] |= src[j+1]
		dst[j+2] |= src[j+2]
		dst[j+3] |= src[j+3]
	}
	for ; j < n; j++ {
		dst[j] |= src[j]
	}
}

// bitMulScratch is the pooled working set of the packed Boolean kernel
// behind MulInto: both operands and the product stay packed for the
// duration of one call.
type bitMulScratch struct {
	a, b, out BitDense
}

var bitMulPool = sync.Pool{New: func() any { return new(bitMulScratch) }}

// GetBitDense returns a pooled rows×cols BitDense with undefined contents
// (every row must be written before reading; see Reset). PutBitDense
// returns it to the pool.
func GetBitDense(rows, cols int) *BitDense {
	m := bitDensePool.Get().(*BitDense)
	m.Reset(rows, cols)
	return m
}

// PutBitDense returns a BitDense obtained from GetBitDense to the pool.
func PutBitDense(m *BitDense) { bitDensePool.Put(m) }

var bitDensePool = sync.Pool{New: func() any { return new(BitDense) }}
