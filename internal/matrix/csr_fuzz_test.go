package matrix_test

import (
	"math"
	"slices"
	"testing"

	"github.com/algebraic-clique/algclique/internal/matrix"
)

// csrFromBytes decodes a fuzz input into a CSR, malformed as often as not:
// byte 0 is N, byte 1 the number of row pointers, byte 2 the value mode
// (0 = nil Val, k = k−1 values), then one signed byte per row pointer and
// one per column. Input that runs out early leaves the arrays short.
func csrFromBytes(data []byte) *matrix.CSR[int64] {
	var head [3]byte
	data = data[copy(head[:], data):]
	m := &matrix.CSR[int64]{N: int(head[0])}
	nptr := min(int(head[1]), len(data))
	for _, b := range data[:nptr] {
		m.RowPtr = append(m.RowPtr, int64(int8(b)))
	}
	for _, b := range data[nptr:] {
		m.Col = append(m.Col, int32(int8(b)))
	}
	if head[2] > 0 {
		m.Val = make([]int64, head[2]-1)
		for i := range m.Val {
			m.Val[i] = int64(i)
		}
	}
	return m
}

// csrToBytes is csrFromBytes' inverse on operands small enough to encode.
func csrToBytes(m *matrix.CSR[int64]) []byte {
	mode := 0
	if m.Val != nil {
		mode = len(m.Val) + 1
	}
	out := []byte{byte(m.N), byte(len(m.RowPtr)), byte(mode)}
	for _, p := range m.RowPtr {
		out = append(out, byte(p))
	}
	for _, c := range m.Col {
		out = append(out, byte(c))
	}
	return out
}

// FuzzCSRValidate: an operand Validate accepts is one every accessor can
// walk — Row on each row, and for small N the Dense expansion — and
// compressing that expansion again stores exactly the entries the operand
// did. The seeds are the malformed operands of the root package's
// TestCSRAPIMalformedOperands, and two sound ones.
func FuzzCSRValidate(f *testing.F) {
	ptr := func(n int, fill int64) []int64 { // n+1 row pointers: 0, then fill
		rp := make([]int64, n+1)
		for i := 1; i <= n; i++ {
			rp[i] = fill
		}
		return rp
	}
	for _, m := range []*matrix.CSR[int64]{
		{N: 8, RowPtr: ptr(8, 5), Col: []int32{1}},       // row pointers claim more than stored
		{N: 8, RowPtr: ptr(8, 1), Col: []int32{1, 2, 3}}, // … less than stored
		{N: 9, RowPtr: []int64{0, 0}},                    // short row-pointer array
		{N: 8},                                           // no row pointers
		{N: 8, RowPtr: append([]int64{1}, ptr(8, 1)[1:]...), Col: []int32{1}},  // row pointers start past zero
		{N: 8, RowPtr: []int64{0, 5, 1, 1, 1, 1, 1, 1, 1}, Col: []int32{1}},    // row end past the stored entries
		{N: 8, RowPtr: []int64{0, 2, 1, 2, 2, 2, 2, 2, 2}, Col: []int32{1, 2}}, // decreasing row pointers
		{N: 8, RowPtr: ptr(8, 1), Col: []int32{8}},                             // column out of range
		{N: 8, RowPtr: ptr(8, 1), Col: []int32{-1}},                            // negative column
		{N: 8, RowPtr: ptr(8, 2), Col: []int32{3, 3}},                          // columns not increasing
		{N: 8, RowPtr: ptr(8, 2), Col: []int32{1, 2}, Val: []int64{7}},         // value count mismatch
		{N: 8, RowPtr: ptr(8, 2), Col: []int32{1, 2}, Val: []int64{0, 1}},      // sound, with values
		{N: 3, RowPtr: []int64{0, 1, 1, 3}, Col: []int32{2, 0, 1}},             // sound adjacency (nil Val)
	} {
		f.Add(csrToBytes(m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m := csrFromBytes(data)
		if m.Validate() != nil {
			return
		}
		for v := 0; v < m.N; v++ {
			cols, vals := m.Row(v)
			if len(cols) != m.RowNNZ(v) || (vals != nil && len(vals) != len(cols)) {
				t.Fatalf("row %d: %d columns, %d values, RowNNZ %d", v, len(cols), len(vals), m.RowNNZ(v))
			}
		}
		if m.N > 64 {
			return
		}
		// No decoded value is MinInt64, so it marks "not stored" exactly.
		const unset = math.MinInt64
		back := matrix.CSRFromDense(m.Dense(unset, 1), func(x int64) bool { return x != unset })
		want := m.Val
		if want == nil {
			want = slices.Repeat([]int64{1}, len(m.Col))
		}
		if !slices.Equal(back.RowPtr, m.RowPtr) || !slices.Equal(back.Col, m.Col) || !slices.Equal(back.Val, want) {
			t.Fatalf("round trip changed the operand:\n got %+v\nwant %+v", back, m)
		}
	})
}
