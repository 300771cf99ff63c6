package ring_test

import (
	"encoding/binary"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ring"
)

// maxFuzzValues bounds one input's chunk.
const maxFuzzValues = 300

// fuzzZp is the field the Zp case encodes residues of: the largest prime
// modulus NewZp accepts.
var fuzzZp = ring.NewZp(1<<31 - 1)

// perElement hides the bulk methods of the codec it wraps, so AsBulk hands
// back its generic per-element adapter.
type perElement[T any] struct{ ring.Codec[T] }

// valuesFromBytes decodes a fuzz input into values of width bytes each; a
// trailing partial value is dropped.
func valuesFromBytes[T any](data []byte, width int, val func([]byte) T) []T {
	var out []T
	for len(data) >= width && len(out) < maxFuzzValues {
		out = append(out, val(data[:width]))
		data = data[width:]
	}
	return out
}

func word(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }

// nearInf reads a min-plus value from 8 bytes: when the top bit of the
// first byte is set, the value is Inf offset by the signed second byte
// (Inf−128 … Inf+127, the neighbourhood where finite and infinite meet);
// otherwise it is the little-endian word itself.
func nearInf(b []byte) int64 {
	if b[0]&0x80 != 0 {
		return ring.Inf + int64(int8(b[1]))
	}
	return word(b)
}

func valW(b []byte) ring.ValW { return ring.ValW{V: nearInf(b[:8]), W: word(b[8:])} }

func bit(b []byte) bool { return b[0]&1 == 1 }

// truthByte reads a Boolean carried in int64 from 1 byte: the byte itself,
// so values other than 0 and 1 (true) occur.
func truthByte(b []byte) int64 { return int64(b[0]) }

// checkBulk asserts the bulk contract on one chunk: EncodeSlice appends
// exactly EncodedLen(len(vals)) words onto a non-empty dst — overwriting
// whatever stale words the spare capacity held, never the prefix — and
// DecodeSlice gives the values back from the chunk's first word, wherever
// the chunk sits and whatever follows it.
func checkBulk[T comparable](t *testing.T, c ring.BulkCodec[T], vals []T) {
	t.Helper()
	checkBulkAs(t, c, vals, vals)
}

// checkBulkAs is checkBulk for a codec that maps some values to others on
// the way (a bounded form's clamp): the chunk decodes to want.
func checkBulkAs[T comparable](t *testing.T, c ring.BulkCodec[T], vals, want []T) {
	t.Helper()
	k := len(vals)
	if k > 0 && c.EncodedLen(k) < 1 {
		t.Fatalf("%d values fit in %d words", k, c.EncodedLen(k))
	}
	prefix := []ring.Word{0xdead, 0xbeef}
	buf := make([]ring.Word, len(prefix), len(prefix)+c.EncodedLen(k)+4)
	for i := range buf[:cap(buf)] {
		buf[:cap(buf)][i] = ^ring.Word(0)
	}
	copy(buf, prefix)
	enc := c.EncodeSlice(buf, vals)
	if len(enc)-len(prefix) != c.EncodedLen(k) {
		t.Fatalf("%d values encoded into %d words, EncodedLen says %d", k, len(enc)-len(prefix), c.EncodedLen(k))
	}
	if enc[0] != prefix[0] || enc[1] != prefix[1] {
		t.Fatal("encoding overwrote the words before the chunk")
	}
	chunk := enc[len(prefix):]
	out := make([]T, k)
	c.DecodeSlice(out, chunk)
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("value %d (%v) decoded as %v, want %v", i, vals[i], out[i], want[i])
		}
	}
	moved := make([]ring.Word, 3+len(chunk)+3)
	for i := range moved {
		moved[i] = ring.Word(0x5a5a5a5a5a5a5a5a)
	}
	copy(moved[3:], chunk)
	clear(out)
	c.DecodeSlice(out, moved[3:])
	for i := range out {
		if out[i] != want[i] {
			t.Fatalf("value %d decoded from a moved chunk as %v, want %v", i, out[i], want[i])
		}
	}
}

// maxFor is the largest bound a width-b bounded min-plus form can carry:
// 2^b − 2, below the sentinel, and at most Inf − 1.
func maxFor(b int) int64 {
	if b >= 62 {
		return ring.Inf - 1
	}
	return min(int64(1)<<b-2, ring.Inf-1)
}

// aroundBound reads a min-plus value from 8 bytes for a form bounded by
// max: with bit 6 of the first byte set, max offset by the signed second
// byte (max+1, the first clamped value, among them); otherwise nearInf.
func aroundBound(b []byte, max int64) int64 {
	if b[0]&0x40 != 0 {
		return max + int64(int8(b[1]))
	}
	return nearInf(b)
}

// clampTo is what the bounded form delivers for v: v in [0, max], Inf
// otherwise.
func clampTo(v, max int64) int64 {
	if v < 0 || v > max {
		return ring.Inf
	}
	return v
}

// FuzzBulkCodec: every dense row and block the engines ship is one
// BulkCodec chunk, so for any values a chunk must append exactly its
// EncodedLen (at least one word for a non-empty chunk, so the engines'
// chunk format can invert it), leave the words before it alone, and decode
// from its first word only. Byte 0 of the input picks the codec (mod 9):
// Int64, MinPlus (values at and around Inf), Zp residues, MinPlusW pairs,
// PackedBit (any byte value, decoded as its 0/1 truth value), PackedBool,
// the AsBulk adapter over a per-element MinPlusW, and
// the two value forms of the one packing layout, ring.Packed — the
// bounded min-plus form at any width 1 … 64 and any bound that width
// carries (values around the bound clamp to Inf above it; the witnessed
// distance product's partial keys are this form too), and the residue
// form at any width 1 … 64 (any int64, negative ones included,
// arrives as its residue mod 2^b, and every bit of the chunk past its
// entries' fields is zero). The next
// bytes choose widths and bounds; the rest is values (valuesFromBytes).
// The seeds are the committed corpus under testdata/fuzz/FuzzBulkCodec.
func FuzzBulkCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		body := data[1:]
		switch data[0] % 9 {
		case 0:
			checkBulk(t, ring.BulkCodec[int64](ring.Int64{}), valuesFromBytes(body, 8, word))
		case 1:
			checkBulk(t, ring.BulkCodec[int64](ring.MinPlus{}), valuesFromBytes(body, 8, nearInf))
		case 2:
			checkBulk(t, ring.BulkCodec[int64](fuzzZp), valuesFromBytes(body, 8, func(b []byte) int64 {
				return fuzzZp.Norm(word(b))
			}))
		case 3:
			checkBulk(t, ring.BulkCodec[ring.ValW](ring.MinPlusW{}), valuesFromBytes(body, 16, valW))
		case 4:
			vals := valuesFromBytes(body, 1, truthByte)
			want := make([]int64, len(vals))
			for i, v := range vals {
				want[i] = ring.Bool{}.Add(v, 0)
			}
			checkBulkAs(t, ring.BulkCodec[int64](ring.PackedBit{}), vals, want)
		case 5:
			checkBulk(t, ring.BulkCodec[bool](ring.PackedBool{}), valuesFromBytes(body, 1, bit))
		case 6:
			checkBulk(t, ring.AsBulk[ring.ValW](perElement[ring.ValW]{ring.MinPlusW{}}), valuesFromBytes(body, 16, valW))
		case 7:
			if len(body) < 9 {
				return
			}
			b := 1 + int(body[0])%64
			c := ring.PackedMinPlus{Bits: b, Max: int64(uint64(word(body[1:9])) % uint64(maxFor(b)+1))}
			vals := valuesFromBytes(body[9:], 8, func(x []byte) int64 { return aroundBound(x, c.Max) })
			want := make([]int64, len(vals))
			for i, v := range vals {
				want[i] = clampTo(v, c.Max)
			}
			checkBulkAs(t, ring.BulkCodec[int64](c), vals, want)
		default:
			if len(body) < 1 {
				return
			}
			c := ring.PackedInt{Bits: 1 + int(body[0])%64}
			vals := valuesFromBytes(body[1:], 8, word)
			want := make([]int64, len(vals))
			for i, v := range vals {
				want[i] = int64(uint64(v) & ring.Packed{Bits: c.Bits}.Sentinel())
			}
			checkBulkAs(t, ring.BulkCodec[int64](c), vals, want)
			checkPadBits(t, c.Bits, len(vals), c.EncodeSlice(nil, vals))
		}
	})
}

// checkPadBits asserts that a Packed chunk of k entries of b bits sets no
// bit outside their fields: neither the top 64 mod b bits of a word nor
// the unused fields of its last word.
func checkPadBits(t *testing.T, b, k int, chunk []ring.Word) {
	t.Helper()
	per := 64 / b
	for j, w := range chunk {
		used := uint(min(per, k-j*per) * b)
		if used < 64 && w>>used != 0 {
			t.Fatalf("word %d of a %d-entry %d-bit chunk is %#x: bits past its %d used bits are set", j, k, b, w, used)
		}
	}
}
