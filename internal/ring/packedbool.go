package ring

// PackedBit is the bit-packed Boolean transport codec, the b = 1 form of
// the Packed layout on int64: a slice of k entries ships as ⌈k/64⌉ words,
// entry i as bit i%64 of word i/64 (little-endian bit order), set exactly
// when the entry is non-zero — the truth value ring.Bool reads — and
// decoded as 0 or 1. Packed documents why packing is faithful to the
// simulator's cost model: Boolean-product bandwidth, and with it the
// simulated round count, drops by the word width, and the layout is fixed
// by the element count alone, so routing stays oblivious. matrix.BitDense
// rows are this layout, so a packed row moves between the wire and the
// local kernels without re-shuffling.
//
// PackedBit is a pure transport: the algebra is ring.Bool. A lone entry
// (Width 1) sits in bit 0 of one word, which is also its slice encoding;
// longer slice encodings are NOT concatenations of element encodings —
// decode a chunk only from its first word, as the BulkCodec contract
// requires.
type PackedBit struct{}

var _ BulkCodec[int64] = PackedBit{}

// Width returns 1: a lone entry still occupies a full word.
func (PackedBit) Width() int { return 1 }

// Encode stores one entry's truth value in bit 0.
func (PackedBit) Encode(v int64, dst []Word) { dst[0] = Word(truth(v != 0)) }

// Decode reads one entry, 0 or 1, from bit 0.
func (PackedBit) Decode(src []Word) int64 { return int64(src[0] & 1) }

// EncodedLen returns ⌈count/64⌉, the 1-bit layout's length.
func (PackedBit) EncodedLen(count int) int { return Packed{Bits: 1}.EncodedLen(count) }

// EncodeSlice appends vals packed 64 entries per word, a bit set for every
// non-zero entry; the pad bits past len(vals) are zero.
//
//cc:hotpath
func (PackedBit) EncodeSlice(dst []Word, vals []int64) []Word {
	dst, w := grow(dst, PackedBit{}.EncodedLen(len(vals)))
	for j := range w {
		var acc Word
		for i, v := range vals[j*64 : min(j*64+64, len(vals))] {
			if v != 0 {
				acc |= 1 << uint(i)
			}
		}
		w[j] = acc
	}
	return dst
}

// DecodeSlice unpacks len(out) entries, each 0 or 1, from the chunk at
// src[0].
//
//cc:hotpath
func (PackedBit) DecodeSlice(out []int64, src []Word) {
	for i := range out {
		out[i] = int64(src[i>>6] >> (uint(i) & 63) & 1)
	}
}

// PackedBool is PackedBit's layout over a []bool: element i of a slice in
// bit i%64 of word i/64. The engines carry Boolean products in int64 and
// ship them through PackedBit; PackedBool and its kernels PackBits and
// UnpackBits write the same words for the same truth values.
type PackedBool struct{}

var _ BulkCodec[bool] = PackedBool{}

// Width returns 1: a lone boolean still occupies a full word.
func (PackedBool) Width() int { return 1 }

// Encode stores a single bool in bit 0.
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
// of word i/64 — the 1-bit layout of PackedBit. dst must hold at least
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
