package ring

// BulkCodec extends Codec with slice-at-a-time transport: whole rows and
// blocks are encoded and decoded in one monomorphic call instead of one
// interface dispatch per element. All shipped codecs implement it; AsBulk
// adapts any remaining Codec.
//
// The bulk contract deliberately generalises the per-element one:
//
//   - EncodedLen(k) is the number of words a k-element slice occupies. For
//     fixed-width codecs it is k·Width(), so the wire format (and therefore
//     every round count) is unchanged; a packing codec such as PackedBit
//     may return fewer words.
//   - A slice encoding is one atomic chunk. It is NOT guaranteed to be the
//     concatenation of per-element encodings (PackedBit's is not), and it
//     may only be decoded from its first word. Protocols that concatenate
//     several chunks into one message must place each chunk at the word
//     offset given by the EncodedLen sums of the chunks before it — which
//     every node can compute from globally known parameters, keeping the
//     routing oblivious and header-free.
type BulkCodec[T any] interface {
	Codec[T]
	// EncodedLen returns the number of words that encode count elements.
	EncodedLen(count int) int
	// EncodeSlice appends the encoding of vals onto dst and returns the
	// extended slice (exactly EncodedLen(len(vals)) words are appended).
	EncodeSlice(dst []Word, vals []T) []Word
	// DecodeSlice decodes len(out) elements into out from the chunk
	// starting at src[0]; src must hold at least EncodedLen(len(out)) words.
	DecodeSlice(out []T, src []Word)
}

// AsBulk returns c itself when it already implements BulkCodec, and a
// generic per-element adapter otherwise. Engines call it once per product,
// so exotic codecs keep working while the shipped ones take the
// monomorphic fast path.
func AsBulk[T any](c Codec[T]) BulkCodec[T] {
	if bc, ok := c.(BulkCodec[T]); ok {
		return bc
	}
	return bulkAdapter[T]{c}
}

// bulkAdapter lifts a per-element Codec to the bulk interface with the
// fixed-width layout (element i at words [i·w, (i+1)·w)).
type bulkAdapter[T any] struct {
	Codec[T]
}

func (a bulkAdapter[T]) EncodedLen(count int) int { return count * a.Width() }

func (a bulkAdapter[T]) EncodeSlice(dst []Word, vals []T) []Word {
	w := a.Width()
	base := len(dst)
	dst = append(dst, make([]Word, len(vals)*w)...)
	for i, v := range vals {
		a.Encode(v, dst[base+i*w:base+(i+1)*w])
	}
	return dst
}

func (a bulkAdapter[T]) DecodeSlice(out []T, src []Word) {
	w := a.Width()
	for i := range out {
		out[i] = a.Decode(src[i*w : (i+1)*w])
	}
}

// grow extends dst by k words and returns (extended, window) where window
// is the newly appended k-word region.
//
//cc:hotpath
func grow(dst []Word, k int) ([]Word, []Word) {
	base := len(dst)
	if cap(dst)-base < k {
		dst = append(dst, make([]Word, k)...) //cc:hotalloc-ok(capacity growth; pooled callers reuse dst)
	} else {
		dst = dst[:base+k]
	}
	return dst, dst[base : base+k]
}

// --- Monomorphic bulk implementations for the shipped codecs. ---
//
// These are memmove-style loops with no interface dispatch in the body;
// they are what the congested-clique engines hit for every row, block, and
// mailbox in a product.

// EncodedLen returns count (one word per element).
func (Int64) EncodedLen(count int) int { return count }

// EncodeSlice appends vals one word per element.
//
//cc:hotpath
func (Int64) EncodeSlice(dst []Word, vals []int64) []Word {
	dst, w := grow(dst, len(vals))
	for i, v := range vals {
		w[i] = Word(v)
	}
	return dst
}

// DecodeSlice decodes one word per element.
//
//cc:hotpath
func (Int64) DecodeSlice(out []int64, src []Word) {
	for i := range out {
		out[i] = int64(src[i])
	}
}

// EncodedLen returns count (one word per element).
func (MinPlus) EncodedLen(count int) int { return count }

// EncodeSlice appends vals one word per element.
//
//cc:hotpath
func (MinPlus) EncodeSlice(dst []Word, vals []int64) []Word {
	dst, w := grow(dst, len(vals))
	for i, v := range vals {
		w[i] = Word(v)
	}
	return dst
}

// DecodeSlice decodes one word per element.
//
//cc:hotpath
func (MinPlus) DecodeSlice(out []int64, src []Word) {
	for i := range out {
		out[i] = int64(src[i])
	}
}

// EncodedLen returns count (one word per element).
func (Zp) EncodedLen(count int) int { return count }

// EncodeSlice appends vals one word per element.
//
//cc:hotpath
func (Zp) EncodeSlice(dst []Word, vals []int64) []Word {
	dst, w := grow(dst, len(vals))
	for i, v := range vals {
		w[i] = Word(v)
	}
	return dst
}

// DecodeSlice decodes one word per element.
//
//cc:hotpath
func (Zp) DecodeSlice(out []int64, src []Word) {
	for i := range out {
		out[i] = int64(src[i])
	}
}

// EncodedLen returns 2·count (value and witness words).
func (MinPlusW) EncodedLen(count int) int { return 2 * count }

// EncodeSlice appends vals as interleaved (value, witness) word pairs.
//
//cc:hotpath
func (MinPlusW) EncodeSlice(dst []Word, vals []ValW) []Word {
	dst, w := grow(dst, 2*len(vals))
	for i, v := range vals {
		w[2*i] = Word(v.V)
		w[2*i+1] = Word(v.W)
	}
	return dst
}

// DecodeSlice decodes interleaved (value, witness) word pairs.
//
//cc:hotpath
func (MinPlusW) DecodeSlice(out []ValW, src []Word) {
	for i := range out {
		out[i] = ValW{V: int64(src[2*i]), W: int64(src[2*i+1])}
	}
}

var (
	_ BulkCodec[int64] = Int64{}
	_ BulkCodec[int64] = MinPlus{}
	_ BulkCodec[int64] = Zp{}
	_ BulkCodec[ValW]  = MinPlusW{}
)
