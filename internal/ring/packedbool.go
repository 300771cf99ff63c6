package ring

// PackedBool is the bit-packed Boolean transport codec, the b = 1 case of
// the Packed layout: a slice of k booleans ships as ⌈k/64⌉ words, element
// i in bit i%64 of word i/64 (little-endian bit order), instead of one
// full word per entry. Packed documents why packing is faithful to the
// simulator's cost model: Boolean-product bandwidth, and with it the
// simulated round count, drops by the word width, and the layout is fixed
// by the element count alone, so routing stays oblivious. Its kernels are
// PackBits and UnpackBits, which graphs.Bitset and matrix.BitDense share.
//
// PackedBool is a pure transport: the algebra is still ring.Bool. Its
// single-element encoding (Width 1, bit 0 of one word) coincides with
// Bool's 0/1 word, but slice encodings are NOT concatenations of element
// encodings — decode a chunk only from its first word, as the BulkCodec
// contract requires.
type PackedBool struct{}

var _ BulkCodec[bool] = PackedBool{}

// Width returns 1: a lone boolean still occupies a full word.
func (PackedBool) Width() int { return 1 }

// Encode stores a single bool in bit 0 (identical to Bool's encoding).
func (PackedBool) Encode(v bool, dst []Word) {
	if v {
		dst[0] = 1
	} else {
		dst[0] = 0
	}
}

// Decode reads a single bool from bit 0.
func (PackedBool) Decode(src []Word) bool { return src[0]&1 != 0 }

// EncodedLen returns ⌈count/64⌉, the 1-bit layout's length.
func (PackedBool) EncodedLen(count int) int { return Packed{Bits: 1}.EncodedLen(count) }

// EncodeSlice appends vals packed 64 entries per word.
//
//cc:hotpath
func (PackedBool) EncodeSlice(dst []Word, vals []bool) []Word {
	dst, w := grow(dst, PackedBool{}.EncodedLen(len(vals)))
	PackBits(w, vals)
	return dst
}

// DecodeSlice unpacks len(out) entries from the chunk at src[0].
//
//cc:hotpath
func (PackedBool) DecodeSlice(out []bool, src []Word) {
	UnpackBits(out, src)
}

// PackBits packs vals into dst, 64 entries per word, element i in bit i%64
// of word i/64 — the one bit layout shared by the PackedBool transport,
// graphs.Bitset, and the matrix.BitDense local kernels, so packed rows move
// between the three without any re-shuffling. dst must hold at least
// ⌈len(vals)/64⌉ words; the words covered by vals are fully overwritten
// (trailing pad bits are cleared), words beyond them are untouched.
//
//cc:hotpath
func PackBits(dst []Word, vals []bool) {
	n := (len(vals) + 63) / 64
	w := dst[:n]
	for i := range w {
		w[i] = 0
	}
	for i, v := range vals {
		if v {
			w[i>>6] |= 1 << (uint(i) & 63)
		}
	}
}

// UnpackBits is the inverse of PackBits: it unpacks len(out) entries from
// src's leading words.
//
//cc:hotpath
func UnpackBits(out []bool, src []Word) {
	for i := range out {
		out[i] = src[i>>6]&(1<<(uint(i)&63)) != 0
	}
}
