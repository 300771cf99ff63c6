package ring

import "math/bits"

// Packed is the one packing layout of the bulk codecs: b = Bits bits per
// entry, ⌊64/b⌋ entries per word, entry i in bits [(i mod per)·b,
// (i mod per)·b + b) of word i/per, the top 64 mod b bits of every word
// zero. Its entries are codes 0 … 2^b − 1; the all-ones code (Sentinel)
// is the one the bounded min-plus form reserves for ∞, while the residue
// form (PackedInt) reserves none. Packed{Bits: 1} is PackedBit's
// layout: 64 entries per word, entry i in bit i%64 of word i/64.
//
// Packing is faithful to the simulator's cost model. The model's message
// is one O(log n)-bit word, and the simulator equates it with one 64-bit
// machine word for every algebra, so a message has 64 usable bits; an
// entry known to need only b of them (a Boolean, a distance bounded by a
// charged round, a node index, a walk count bounded by n) may share its
// word with ⌊64/b⌋ − 1 others.
// The layout is fixed by the element count and b alone, so routing stays
// oblivious as long as every node knows b — which is why a width that
// depends on the data must come from a charged round.
//
// Like every packing codec's, a slice encoding is one atomic chunk,
// decoded only from its first word; a lone element (Width 1) sits in bits
// [0, b) of one word, which is also its slice encoding.
type Packed struct {
	Bits int // b, 1 … 64
}

// per returns ⌊64/b⌋, the entries one word holds.
func (p Packed) per() int { return 64 / p.Bits }

// Sentinel returns the all-ones code 2^b − 1.
func (p Packed) Sentinel() uint64 { return ^uint64(0) >> (64 - p.Bits) }

// EncodedLen returns ⌈count / ⌊64/b⌋⌉, the words count entries occupy.
func (p Packed) EncodedLen(count int) int {
	per := p.per()
	return (count + per - 1) / per
}

// pack overwrites the EncodedLen(k) words of w with the codes code(0) …
// code(k−1), each masked to b bits so it never reaches a neighbouring
// field.
//
//cc:hotpath
func (p Packed) pack(w []Word, k int, code func(i int) uint64) {
	b, per, mask := uint(p.Bits), p.per(), p.Sentinel()
	for j := range w {
		var acc Word
		sh := uint(0)
		for i := j * per; i < min(j*per+per, k); i++ {
			acc |= (code(i) & mask) << sh
			sh += b
		}
		w[j] = acc
	}
}

// unpack hands set the codes of entries 0 … k−1 of the chunk at src[0].
//
//cc:hotpath
func (p Packed) unpack(src []Word, k int, set func(i int, code uint64)) {
	b, per, mask := uint(p.Bits), p.per(), p.Sentinel()
	for j := 0; j*per < k; j++ {
		x := src[j]
		for i := j * per; i < min(j*per+per, k); i++ {
			set(i, x&mask)
			x >>= b
		}
	}
}

// MinPlusBits returns ⌈log₂(max + 2)⌉, the fewest bits that hold the
// codes 0 … max and a distinct all-ones sentinel.
func MinPlusBits(max int64) int { return bits.Len64(uint64(max) + 1) }

// WitnessBits returns ⌈log₂(n + 1)⌉: the bits that hold every node index
// 0 … n−1 with the all-ones code to spare, the witness bits of a bounded
// distance product's keys on n nodes.
func WitnessBits(n int) int { return bits.Len(uint(n)) }

// PackedMinPlus is the bounded min-plus form of the Packed layout: values
// known to lie in [0, Max] ship Bits bits each, a value v in range as code
// v and every other one — Inf, and a finite value above Max — as the
// all-ones sentinel, which decodes to Inf. So a finite value above Max is
// clamped to Inf on the wire; a caller that promises Max bounds every
// finite entry loses nothing. Bits must be at least MinPlusBits(Max), and
// Max at most Inf − 1. (A negative value is out of range too: it also
// ships as the sentinel, so only non-negative entries may take this form.)
type PackedMinPlus struct {
	Bits int
	Max  int64
}

var _ BulkCodec[int64] = PackedMinPlus{}

func (c PackedMinPlus) layout() Packed { return Packed{Bits: c.Bits} }

// code maps a value to its code: itself in range, the sentinel otherwise.
func (c PackedMinPlus) code(v int64) uint64 {
	if uint64(v) > uint64(c.Max) {
		return c.layout().Sentinel()
	}
	return uint64(v)
}

// value maps a code back: the sentinel to Inf, any other code to itself.
func (c PackedMinPlus) value(code uint64) int64 {
	if code == c.layout().Sentinel() {
		return Inf
	}
	return int64(code)
}

// Width returns 1: a lone entry occupies one word.
func (PackedMinPlus) Width() int { return 1 }

// Encode stores one value's code in bits [0, Bits) of dst[0].
func (c PackedMinPlus) Encode(v int64, dst []Word) { dst[0] = c.code(v) }

// Decode reads one value from bits [0, Bits) of src[0].
func (c PackedMinPlus) Decode(src []Word) int64 { return c.value(src[0] & c.layout().Sentinel()) }

// EncodedLen returns ⌈count / ⌊64/Bits⌋⌉.
func (c PackedMinPlus) EncodedLen(count int) int { return c.layout().EncodedLen(count) }

// EncodeSlice appends vals packed ⌊64/Bits⌋ per word.
//
//cc:hotpath
func (c PackedMinPlus) EncodeSlice(dst []Word, vals []int64) []Word {
	lay := c.layout()
	dst, w := grow(dst, lay.EncodedLen(len(vals)))
	lay.pack(w, len(vals), func(i int) uint64 { return c.code(vals[i]) })
	return dst
}

// DecodeSlice unpacks len(out) values from the chunk at src[0].
//
//cc:hotpath
func (c PackedMinPlus) DecodeSlice(out []int64, src []Word) {
	c.layout().unpack(src, len(out), func(i int, code uint64) { out[i] = c.value(code) })
}

// IntBits returns ⌈log₂(max + 1)⌉, at least 1: the fewest bits that hold
// every integer in [0, max]. max must not be negative.
func IntBits(max int64) int { return bits.Len64(uint64(max) | 1) }

// PackedInt is the residue form of the Packed layout: an int64 ships as
// its residue mod 2^Bits — the low Bits bits of its two's complement — and
// decodes as that residue in [0, 2^Bits). No code is reserved. Z → Z/2^64
// → Z/2^b are ring homomorphisms, so every engine of the integer ring
// (the bilinear one, whose schemes have ±1 coefficients, included) stays
// correct mod 2^b whatever its intermediates, negative or wrapped; a
// product known to have every entry in [0, 2^b) ships exactly. At Bits =
// 64 it is ring.Int64's layout.
type PackedInt struct {
	Bits int // b, 1 … 64
}

var _ BulkCodec[int64] = PackedInt{}

func (c PackedInt) layout() Packed { return Packed{Bits: c.Bits} }

// Width returns 1: a lone entry occupies one word.
func (PackedInt) Width() int { return 1 }

// Encode stores one value's residue in bits [0, Bits) of dst[0].
func (c PackedInt) Encode(v int64, dst []Word) { dst[0] = uint64(v) & c.layout().Sentinel() }

// Decode reads one residue from bits [0, Bits) of src[0].
func (c PackedInt) Decode(src []Word) int64 { return int64(src[0] & c.layout().Sentinel()) }

// EncodedLen returns ⌈count / ⌊64/Bits⌋⌉.
func (c PackedInt) EncodedLen(count int) int { return c.layout().EncodedLen(count) }

// EncodeSlice appends the residues of vals packed ⌊64/Bits⌋ per word.
//
//cc:hotpath
func (c PackedInt) EncodeSlice(dst []Word, vals []int64) []Word {
	lay := c.layout()
	dst, w := grow(dst, lay.EncodedLen(len(vals)))
	lay.pack(w, len(vals), func(i int) uint64 { return uint64(vals[i]) })
	return dst
}

// DecodeSlice unpacks len(out) residues from the chunk at src[0].
//
//cc:hotpath
func (c PackedInt) DecodeSlice(out []int64, src []Word) {
	c.layout().unpack(src, len(out), func(i int, code uint64) { out[i] = int64(code) })
}
