package ring

// Tuple is one sparse-matrix entry in transit: a row or column index paired
// with its algebra value. The sparse multiplication engine (ccmm's
// EngineSparse) moves its operands and partial products as streams of
// tuples instead of dense rows, so a product's word cost scales with the
// operands' nonzero counts rather than with n².
type Tuple[T any] struct {
	// Idx is the global row/column index the value belongs to.
	Idx int32
	// Val is the algebra value.
	Val T
}

// AppendTuples appends one CSR row window (parallel column-index and value
// slices) onto dst as tuples. A nil vals slice means the row stores no
// explicit values — every entry is the algebra's one element, the
// convention adjacency matrices use — so the caller passes that element.
// It is the bridge from CSR-native operands into the tuple streams the
// sparse engine ships: no dense row ever materialises.
//
//cc:hotpath
func AppendTuples[T any](dst []Tuple[T], cols []int32, vals []T, one T) []Tuple[T] {
	if vals == nil {
		for _, c := range cols {
			dst = append(dst, Tuple[T]{Idx: c, Val: one})
		}
		return dst
	}
	for i, c := range cols {
		dst = append(dst, Tuple[T]{Idx: c, Val: vals[i]})
	}
	return dst
}

// TupleCodec bulk-encodes tuple streams for the wire transport. A k-tuple
// chunk is laid out as k index words followed by the value codec's
// k-element chunk:
//
//	[idx₀ … idx_{k-1}] [Val.EncodeSlice(val₀ … val_{k-1})]
//
// so EncodedLen(k) = k + Val.EncodedLen(k). Keeping the values in one
// inner bulk chunk preserves a packing value codec's compression —
// Boolean tuples ship their k values in ⌈k/64⌉ words through PackedBit —
// and keeps the chunk contract of BulkCodec: a chunk is atomic, decodable
// only from its first word, and not necessarily the concatenation of
// per-element encodings.
//
// The index words make the stream self-delimiting given its word length:
// EncodedLen is strictly increasing in the tuple count, so CountFor
// recovers the count of a lone chunk from the number of words it occupies.
// That is what lets the sparse engine's dynamic gather traffic (whose
// per-pair counts are data-dependent) travel header-free, the same
// out-of-band addressing convention the routing layer documents.
type TupleCodec[T any] struct {
	// Val encodes the value halves of the stream.
	Val BulkCodec[T]
}

// NewTupleCodec wraps a value codec (lifted to its bulk form) for tuple
// transport.
func NewTupleCodec[T any](c Codec[T]) TupleCodec[T] {
	return TupleCodec[T]{Val: AsBulk[T](c)}
}

// EncodedLen returns the number of words a count-tuple chunk occupies:
// count index words plus the value codec's chunk length.
func (tc TupleCodec[T]) EncodedLen(count int) int {
	return count + tc.Val.EncodedLen(count)
}

// EncodeSlice appends the chunk encoding of tups onto dst and returns the
// extended slice (exactly EncodedLen(len(tups)) words are appended). The
// value halves are gathered into vbuf — grown as needed and returned so
// hot paths can pool it; a nil vbuf allocates.
//
//cc:hotpath
func (tc TupleCodec[T]) EncodeSlice(dst []Word, tups []Tuple[T], vbuf []T) ([]Word, []T) {
	k := len(tups)
	dst, w := grow(dst, k)
	if cap(vbuf) < k {
		vbuf = make([]T, k) //cc:hotalloc-ok(capacity growth; callers pool vbuf)
	}
	vbuf = vbuf[:k]
	for i, t := range tups {
		w[i] = Word(uint32(t.Idx))
		vbuf[i] = t.Val
	}
	return tc.Val.EncodeSlice(dst, vbuf), vbuf
}

// DecodeSlice decodes len(out) tuples from the chunk starting at src[0];
// src must hold at least EncodedLen(len(out)) words. The value halves are
// staged through vbuf (grown as needed and returned for pooling); a nil
// vbuf allocates.
//
//cc:hotpath
func (tc TupleCodec[T]) DecodeSlice(out []Tuple[T], src []Word, vbuf []T) []T {
	k := len(out)
	if cap(vbuf) < k {
		vbuf = make([]T, k) //cc:hotalloc-ok(capacity growth; callers pool vbuf)
	}
	vbuf = vbuf[:k]
	tc.Val.DecodeSlice(vbuf, src[k:])
	for i := range out {
		out[i] = Tuple[T]{Idx: int32(uint32(src[i])), Val: vbuf[i]}
	}
	return vbuf
}

// CountFor inverts EncodedLen: it returns the tuple count whose chunk
// occupies exactly words words, or -1 if no count does (a malformed
// chunk). EncodedLen is strictly increasing — every tuple adds at least
// its index word — so the inverse is found by binary search.
func (tc TupleCodec[T]) CountFor(words int) int {
	if words == 0 {
		return 0
	}
	lo, hi := 0, words // EncodedLen(words) ≥ words, so the count is ≤ words
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if tc.EncodedLen(mid) <= words {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	if tc.EncodedLen(lo) != words {
		return -1
	}
	return lo
}
