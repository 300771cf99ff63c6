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

// checkBulk asserts the bulk contract on one chunk: EncodeSlice appends
// exactly EncodedLen(len(vals)) words onto a non-empty dst — overwriting
// whatever stale words the spare capacity held, never the prefix — and
// DecodeSlice gives the values back from the chunk's first word, wherever
// the chunk sits and whatever follows it.
func checkBulk[T comparable](t *testing.T, c ring.BulkCodec[T], vals []T) {
	t.Helper()
	k := len(vals)
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
		if out[i] != vals[i] {
			t.Fatalf("value %d decoded as %v, want %v", i, out[i], vals[i])
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
		if out[i] != vals[i] {
			t.Fatalf("value %d decoded from a moved chunk as %v, want %v", i, out[i], vals[i])
		}
	}
}

// FuzzBulkCodec: every dense row and block the engines ship is one
// BulkCodec chunk, so for any values a chunk must append exactly its
// EncodedLen, leave the words before it alone, and decode from its first
// word only. Byte 0 of the input picks the codec (mod 7): Int64, MinPlus
// (values at and around Inf), Zp residues, MinPlusW pairs, Bool,
// PackedBool, and the AsBulk adapter over a per-element MinPlusW; the rest
// is values (valuesFromBytes). The seeds are the committed corpus under
// testdata/fuzz/FuzzBulkCodec.
func FuzzBulkCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		body := data[1:]
		switch data[0] % 7 {
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
			checkBulk(t, ring.BulkCodec[bool](ring.Bool{}), valuesFromBytes(body, 1, bit))
		case 5:
			checkBulk(t, ring.BulkCodec[bool](ring.PackedBool{}), valuesFromBytes(body, 1, bit))
		default:
			checkBulk(t, ring.AsBulk[ring.ValW](perElement[ring.ValW]{ring.MinPlusW{}}), valuesFromBytes(body, 16, valW))
		}
	})
}
