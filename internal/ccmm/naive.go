package ccmm

import (
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// NaiveGather computes P = S·T by having every node learn the entire right
// operand (Θ(n) rounds) and multiply its own row locally. It is the trivial
// baseline against which the 3D and bilinear algorithms are measured, and
// works on any clique size and semiring.
//
// The gather is Learn, the "learn everything" step: the direct transport
// charges it analytically from the codec's EncodedLen — so a packing codec
// still compresses it 64× on the ledger — and every node reads the right
// operand's rows in place; the wire transport ships each row as one bulk
// chunk. The result comes from sc's free list; a nil sc is the network's
// own.
func NaiveGather[T any](net *clique.Network, sc *Scratch, sr ring.Semiring[T], codec ring.Codec[T], s, t *RowMat[T]) (p *RowMat[T], err error) {
	defer catchAbort(&err)
	n := net.N()
	if err := validatePair(n, s, t); err != nil {
		return nil, err
	}
	f := chunks[T]{ring.AsBulk[T](codec), n} // one chunk per row
	lens := make([]int64, n)
	for v := range lens {
		lens[v] = int64(f.EncodedLen(n))
	}
	net.Phase("mmnaive/gather")
	trows := Learn(net, t.Rows, lens, func(v int) []clique.Word {
		return f.encode(nil, t.Rows[v], v)
	}, func(all [][]clique.Word) [][]T {
		rows := NewRowMat[T](n).Rows
		for v, ws := range all {
			f.decode(rows[v], ws, v)
		}
		return rows
	})

	net.Phase("mmnaive/multiply")
	return naiveMultiply(net, sc.orOf(net), sr, s, trows), nil
}

// naiveMultiply is the local multiplication: node v multiplies its own row
// of s against the gathered right operand. The Boolean semiring gets the
// word-parallel path: the right operand is packed once into a pooled
// BitDense and every node multiplies its packed row against it, ~64
// columns per word operation.
func naiveMultiply[T any](net *clique.Network, sc *Scratch, sr ring.Semiring[T], s *RowMat[T], trows [][]T) *RowMat[T] {
	if _, ok := any(sr).(ring.Bool); ok {
		sb := any(s).(*RowMat[int64])
		tb := any(trows).([][]int64)
		return any(naiveMultiplyBool(net, sc, sb, tb)).(*RowMat[T])
	}
	n := net.N()
	zero := sr.Zero()
	p := GetMat[T](sc, n)
	net.ForEach(func(v int) {
		srow := s.Rows[v]
		out := p.Rows[v]
		for j := 0; j < n; j++ {
			out[j] = zero
		}
		for k := 0; k < n; k++ {
			sk := srow[k]
			if sr.Equal(sk, zero) {
				continue
			}
			trow := trows[k]
			for j := 0; j < n; j++ {
				out[j] = sr.Add(out[j], sr.Mul(sk, trow[j]))
			}
		}
	})
	return p
}

// naiveMultiplyBool multiplies Boolean rows word-parallel: the right
// operand's non-zero entries pack once into a pooled BitDense (in
// parallel, one row per node, in the PackedBit layout), its nonzero-row
// bitset is computed once up front — single-threaded on purpose, the cache
// is not safe for concurrent first use — and every node runs the packed
// row kernel on its own slice of the word buffers, unpacking its row of
// the product as 0/1 entries.
func naiveMultiplyBool(net *clique.Network, sc *Scratch, s *RowMat[int64], trows [][]int64) *RowMat[int64] {
	n := net.N()
	p := GetMat[int64](sc, n) // DecodeSlice writes every entry
	bd := matrix.GetBitDense(n, n)
	defer matrix.PutBitDense(bd)
	bits := ring.PackedBit{}
	net.ForEach(func(v int) {
		bits.EncodeSlice(bd.RowWords(v)[:0], trows[v])
	})
	bd.Invalidate()
	bAny := bd.NonzeroRows()
	stride := bd.Stride()
	rowW := make([]uint64, n*stride)
	outW := make([]uint64, n*stride)
	net.ForEach(func(v int) {
		aw := rowW[v*stride : (v+1)*stride]
		bits.EncodeSlice(aw[:0], s.Rows[v]) // overwrites aw's stride words
		dst := outW[v*stride : (v+1)*stride]
		matrix.MulBitRowInto(dst, aw, bAny, bd)
		bits.DecodeSlice(p.Rows[v], dst)
	})
	return p
}
