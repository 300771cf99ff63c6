// Fixture for the hotalloc analyzer: allocation discipline in //cc:hotpath
// functions.
package a

import "fmt"

type pair struct{ a, b int }

func sink(v any) { _ = v }

//cc:hotpath
func hot(n int, buf []uint64) []uint64 {
	scratch := make([]uint64, n) // want "allocates in a"
	_ = fmt.Sprintf("%d", n)     // want "fmt.Sprintf formats"
	xs := []int{1, 2}            // want "composite literal allocates"
	p := &pair{a: 1}             // want "composite literal allocates"
	sink(n)                      // want "boxing int into interface argument"
	_, _, _ = scratch, xs, p
	if cap(buf) < n {
		buf = make([]uint64, n) //cc:hotalloc-ok(capacity growth)
	}
	if n < 0 {
		panic(fmt.Sprintf("bad n %d", n)) // panic construction is the cold path
	}
	return buf[:n]
}

func cold(n int) []uint64 {
	return make([]uint64, n) // unmarked functions may allocate
}

// bitMat mirrors the packed-kernel shapes: hotpath methods with pooled
// backing storage that may only grow on the capacity-miss cold path.
type bitMat struct {
	w      []uint64
	rowAny []uint64
}

//cc:hotpath
func (m *bitMat) reset(n int) {
	if cap(m.w) < n {
		m.w = make([]uint64, n) //cc:hotalloc-ok(capacity growth)
	}
	m.w = m.w[:n]
}

//cc:hotpath
func (m *bitMat) nonzero(n int) []uint64 {
	m.rowAny = make([]uint64, n) // want "allocates in a"
	return m.rowAny
}

// orRow is the shape of the word-parallel kernels: pure sub-slicing and
// word ops, no allocation — the analyzer must stay silent.
//
//cc:hotpath
func orRow(dst, src []uint64) {
	src = src[:len(dst)]
	for j := range dst {
		dst[j] |= src[j]
	}
}
