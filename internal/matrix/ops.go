package matrix

import (
	"fmt"
	"sync"

	"github.com/algebraic-clique/algclique/internal/ring"
)

// Add returns a + b entry-wise over the semiring.
func Add[T any](r ring.Semiring[T], a, b *Dense[T]) *Dense[T] {
	shapeCheck("Add", a, b)
	out := New[T](a.rows, a.cols)
	for i := range a.e {
		out.e[i] = r.Add(a.e[i], b.e[i])
	}
	return out
}

// Sub returns a - b entry-wise over the ring.
func Sub[T any](r ring.Ring[T], a, b *Dense[T]) *Dense[T] {
	shapeCheck("Sub", a, b)
	out := New[T](a.rows, a.cols)
	for i := range a.e {
		out.e[i] = r.Sub(a.e[i], b.e[i])
	}
	return out
}

// Scale returns c*a entry-wise for a small integer coefficient c.
func Scale[T any](r ring.Ring[T], c int64, a *Dense[T]) *Dense[T] {
	out := New[T](a.rows, a.cols)
	for i := range a.e {
		out.e[i] = r.Scale(c, a.e[i])
	}
	return out
}

// ScaleAddInto accumulates c*b into a: a[i] = a[i] + c*b[i].
func ScaleAddInto[T any](r ring.Ring[T], a *Dense[T], c int64, b *Dense[T]) {
	shapeCheck("ScaleAddInto", a, b)
	if c == 0 {
		return
	}
	if c == 1 {
		for i := range a.e {
			a.e[i] = r.Add(a.e[i], b.e[i])
		}
		return
	}
	if c == -1 {
		for i := range a.e {
			a.e[i] = r.Sub(a.e[i], b.e[i])
		}
		return
	}
	for i := range a.e {
		a.e[i] = r.Add(a.e[i], r.Scale(c, b.e[i]))
	}
}

// ScaleAddFromBlock accumulates c times the block of src with top-left
// corner (r0, c0) into dst: dst[i][j] += c·src[r0+i][c0+j]. It is
// ScaleAddInto reading through a block window, with no copy of the block —
// the bilinear engine's linear-combination step runs entirely on views.
func ScaleAddFromBlock[T any](r ring.Ring[T], dst *Dense[T], c int64, src *Dense[T], r0, c0 int) {
	if r0 < 0 || c0 < 0 || r0+dst.rows > src.rows || c0+dst.cols > src.cols {
		panic(fmt.Sprintf("matrix: ScaleAddFromBlock %d×%d at (%d, %d) exceeds %d×%d",
			dst.rows, dst.cols, r0, c0, src.rows, src.cols))
	}
	// The bilinear-scheme combination steps call this on blocks as small as
	// (q/d)², so the integer ring gets a flat monomorphic loop with no
	// per-row dispatch (the blocks are far smaller than the call count).
	if _, ok := any(r).(ring.Int64); ok {
		d, s := any(dst).(*Dense[int64]), any(src).(*Dense[int64])
		for i := 0; i < d.rows; i++ {
			scaleAddRowInt64(d.e[i*d.cols:(i+1)*d.cols], c, s.e[(r0+i)*s.cols+c0:(r0+i)*s.cols+c0+d.cols])
		}
		return
	}
	for i := 0; i < dst.rows; i++ {
		drow := dst.Row(i)
		srow := src.e[(r0+i)*src.cols+c0 : (r0+i)*src.cols+c0+dst.cols]
		scaleAddRow(r, drow, c, srow)
	}
}

// ScaleAddToBlock accumulates c·src into the block of dst with top-left
// corner (r0, c0): dst[r0+i][c0+j] += c·src[i][j]. The writing twin of
// ScaleAddFromBlock.
func ScaleAddToBlock[T any](r ring.Ring[T], dst *Dense[T], r0, c0 int, c int64, src *Dense[T]) {
	if r0 < 0 || c0 < 0 || r0+src.rows > dst.rows || c0+src.cols > dst.cols {
		panic(fmt.Sprintf("matrix: ScaleAddToBlock %d×%d at (%d, %d) exceeds %d×%d",
			src.rows, src.cols, r0, c0, dst.rows, dst.cols))
	}
	if _, ok := any(r).(ring.Int64); ok {
		d, s := any(dst).(*Dense[int64]), any(src).(*Dense[int64])
		for i := 0; i < s.rows; i++ {
			scaleAddRowInt64(d.e[(r0+i)*d.cols+c0:(r0+i)*d.cols+c0+s.cols], c, s.e[i*s.cols:(i+1)*s.cols])
		}
		return
	}
	for i := 0; i < src.rows; i++ {
		drow := dst.e[(r0+i)*dst.cols+c0 : (r0+i)*dst.cols+c0+src.cols]
		scaleAddRow(r, drow, c, src.Row(i))
	}
}

// scaleAddRow accumulates c·src into dst element-wise with the small-
// coefficient fast paths shared by all ScaleAdd variants. The integer
// ring — every bilinear-scheme combination step — runs monomorphic, with
// no interface dispatch in the element loop.
func scaleAddRow[T any](r ring.Ring[T], dst []T, c int64, src []T) {
	if _, ok := any(r).(ring.Int64); ok {
		scaleAddRowInt64(any(dst).([]int64), c, any(src).([]int64))
		return
	}
	switch c {
	case 0:
	case 1:
		for j := range dst {
			dst[j] = r.Add(dst[j], src[j])
		}
	case -1:
		for j := range dst {
			dst[j] = r.Sub(dst[j], src[j])
		}
	default:
		for j := range dst {
			dst[j] = r.Add(dst[j], r.Scale(c, src[j]))
		}
	}
}

func scaleAddRowInt64(dst []int64, c int64, src []int64) {
	switch c {
	case 0:
	case 1:
		for j, v := range src {
			dst[j] += v
		}
	case -1:
		for j, v := range src {
			dst[j] -= v
		}
	default:
		for j, v := range src {
			dst[j] += c * v
		}
	}
}

// Fill sets every entry of m to v (pooled-buffer reset helper).
func (m *Dense[T]) Fill(v T) {
	for i := range m.e {
		m.e[i] = v
	}
}

// Transpose returns the transpose of m.
func Transpose[T any](m *Dense[T]) *Dense[T] {
	out := New[T](m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		src := m.Row(i)
		for j := 0; j < m.cols; j++ {
			out.e[j*out.cols+i] = src[j]
		}
	}
	return out
}

// Trace returns the sum (semiring Add) of the diagonal entries.
func Trace[T any](r ring.Semiring[T], m *Dense[T]) T {
	if m.rows != m.cols {
		panic(fmt.Sprintf("matrix: Trace of non-square %d×%d", m.rows, m.cols))
	}
	acc := r.Zero()
	for i := 0; i < m.rows; i++ {
		acc = r.Add(acc, m.e[i*m.cols+i])
	}
	return acc
}

// Mul returns the school-book product a·b over the semiring, in i-k-j loop
// order. Specialised inner loops handle the frequent algebras (integers,
// Booleans, min-plus with and without witnesses) without per-entry
// interface dispatch; see MulInto for the allocation-free form.
func Mul[T any](r ring.Semiring[T], a, b *Dense[T]) *Dense[T] {
	out := New[T](a.rows, b.cols)
	MulInto(r, out, a, b)
	return out
}

// MulInto computes a·b into out, which must be a.rows×b.cols; every entry
// of out is overwritten, so stale (pooled) destinations are safe. It is the
// zero-allocation core of Mul: the distributed engines call it with
// scratch-pooled blocks on every local multiplication.
//
// All kernels accumulate each out[i][j] in ascending-k order, so results
// are bit-identical to the generic path for every algebra (including the
// witness tie-breaking of MinPlusW).
func MulInto[T any](r ring.Semiring[T], out, a, b *Dense[T]) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("matrix: Mul %d×%d by %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	if out.rows != a.rows || out.cols != b.cols {
		panic(fmt.Sprintf("matrix: MulInto destination %d×%d for a %d×%d product",
			out.rows, out.cols, a.rows, b.cols))
	}
	switch any(r).(type) {
	case ring.Int64:
		mulInt64Into(any(out).(*Dense[int64]), any(a).(*Dense[int64]), any(b).(*Dense[int64]))
		return
	case ring.Bool:
		MulBoolInto(any(out).(*Dense[int64]), any(a).(*Dense[int64]), any(b).(*Dense[int64]))
		return
	case ring.MinPlus:
		MulMinPlusInto(any(out).(*Dense[int64]), any(a).(*Dense[int64]), any(b).(*Dense[int64]))
		return
	case ring.MinPlusW:
		MulMinPlusWInto(any(out).(*Dense[ring.ValW]), any(a).(*Dense[ring.ValW]), any(b).(*Dense[ring.ValW]))
		return
	}
	zero := r.Zero()
	for i := range out.e {
		out.e[i] = zero
	}
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.cols; k++ {
			aik := arow[k]
			if r.Equal(aik, zero) {
				continue
			}
			brow := b.Row(k)
			for j := range orow {
				orow[j] = r.Add(orow[j], r.Mul(aik, brow[j]))
			}
		}
	}
}

// mulTileJ is the column-tile width of the cache-blocked kernels. Tiling
// splits the j loop so one out-row segment and one b-row segment stay
// resident while k streams; per-(i,j) accumulation order is untouched, so
// tiled and untiled runs are bit-identical. Matrices narrower than one tile
// (every distributed block product) take the straight-line path.
const mulTileJ = 512

func mulInt64Into(out, a, b *Dense[int64]) {
	for i := range out.e {
		out.e[i] = 0
	}
	for jb := 0; jb < b.cols; jb += mulTileJ {
		je := jb + mulTileJ
		if je > b.cols {
			je = b.cols
		}
		for i := 0; i < a.rows; i++ {
			arow := a.e[i*a.cols : (i+1)*a.cols]
			orow := out.e[i*out.cols+jb : i*out.cols+je]
			for k, aik := range arow {
				if aik == 0 {
					continue
				}
				brow := b.e[k*b.cols+jb : k*b.cols+je]
				for j, bv := range brow {
					orow[j] += aik * bv
				}
			}
		}
	}
}

// MulBoolInto is the packed Boolean kernel behind MulInto over ring.Bool:
// both operands' non-zero entries are packed into pooled BitDense scratch
// (64 entries per word, the PackedBit layout), multiplied word-parallel by
// MulBitInto, and the product unpacked into out as 0/1 entries. The b-row
// occupancy vector the scalar kernel rebuilt with an O(n²) branchy scan
// per call is now the BitDense nonzero-row cache, computed word-parallel.
// Results are bit-identical to MulBoolScalarInto and the generic path (OR
// is idempotent and monotone).
//
//cc:hotpath
func MulBoolInto(out, a, b *Dense[int64]) {
	sc := bitMulPool.Get().(*bitMulScratch)
	PackDense(&sc.a, a)
	PackDense(&sc.b, b)
	sc.out.Reset(a.rows, b.cols)
	MulBitInto(&sc.out, &sc.a, &sc.b)
	UnpackDense(out, &sc.out)
	bitMulPool.Put(sc)
}

// MulBoolScalarInto is the pre-packing scalar Boolean kernel, kept as the
// differential-test reference and the scalar side of BenchmarkMulBool (the
// packed kernel's rate is the yardstick's matrix.ns_per_madd.mulbit_256).
// It ORs a·b, reading non-zero entries as true and writing 0/1, with two
// short-circuits the Boolean algebra allows: b-rows with no true entry are
// skipped outright, and the k loop stops as soon as an output row is
// saturated (all true) — both invisible in the result, since OR is
// monotone.
func MulBoolScalarInto(out, a, b *Dense[int64]) {
	for i := range out.e {
		out.e[i] = 0
	}
	scratch := boolRowScratch.Get().(*[]bool)
	defer boolRowScratch.Put(scratch)
	if cap(*scratch) < b.rows {
		*scratch = make([]bool, b.rows)
	}
	bAny := (*scratch)[:b.rows]
	for k := range bAny {
		bAny[k] = false
		for _, bv := range b.Row(k) {
			if bv != 0 {
				bAny[k] = true
				break
			}
		}
	}
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		unset := len(orow)
		for k := 0; k < a.cols && unset > 0; k++ {
			if arow[k] == 0 || !bAny[k] {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				if bv != 0 && orow[j] == 0 {
					orow[j] = 1
					unset--
				}
			}
		}
	}
}

// boolRowScratch pools the per-call b-row occupancy vector of
// MulBoolScalarInto.
var boolRowScratch = sync.Pool{New: func() any { return new([]bool) }}

// DistanceProductWitness computes the min-plus product a⋆b together with a
// witness matrix: w[i][j] is a k achieving out[i][j] = a[i][k] + b[k][j]
// (the smallest such k), or ring.NoWitness where out[i][j] is infinite.
// It is the centralised reference for the distributed witness machinery.
func DistanceProductWitness(a, b *Dense[int64]) (prod *Dense[int64], wit *Dense[int64]) {
	if a.cols != b.rows {
		panic(fmt.Sprintf("matrix: DistanceProductWitness %d×%d by %d×%d", a.rows, a.cols, b.rows, b.cols))
	}
	prod = NewFilled[int64](a.rows, b.cols, ring.Inf)
	wit = NewFilled[int64](a.rows, b.cols, ring.NoWitness)
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		prow := prod.Row(i)
		wrow := wit.Row(i)
		for k := 0; k < a.cols; k++ {
			aik := arow[k]
			if ring.IsInf(aik) {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				if ring.IsInf(bv) {
					continue
				}
				if s := aik + bv; s < prow[j] {
					prow[j] = s
					wrow[j] = int64(k)
				}
			}
		}
	}
	return prod, wit
}

// Pow returns m^k over the semiring via repeated squaring. k must be ≥ 1.
func Pow[T any](r ring.Semiring[T], m *Dense[T], k int) *Dense[T] {
	if m.rows != m.cols {
		panic(fmt.Sprintf("matrix: Pow of non-square %d×%d", m.rows, m.cols))
	}
	if k < 1 {
		panic("matrix: Pow exponent must be ≥ 1")
	}
	result := m.Clone()
	k--
	base := m
	for k > 0 {
		if k&1 == 1 {
			result = Mul(r, result, base)
		}
		k >>= 1
		if k > 0 {
			base = Mul(r, base, base)
		}
	}
	return result
}

func shapeCheck[T any](op string, a, b *Dense[T]) {
	if a.rows != b.rows || a.cols != b.cols {
		panic(fmt.Sprintf("matrix: %s shape mismatch %d×%d vs %d×%d", op, a.rows, a.cols, b.rows, b.cols))
	}
}
