package ring_test

import (
	"encoding/binary"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ring"
)

// maxFuzzTuples bounds one input's chunk, so the CountFor sweep below stays
// quadratic in something small.
const maxFuzzTuples = 300

// tuplesFromBytes decodes a fuzz input into tuples: 4 bytes of index each
// (little-endian, the sign bit masked off, so 0 … 2³¹−1), then the value —
// 8 bytes for int64 and min-plus, whose values at or beyond ±Inf read as
// Inf, and the low bit of 1 byte for Boolean (0 or 1). A trailing partial
// tuple is dropped.
func tuplesFromBytes[T any](data []byte, width int, val func([]byte) T) []ring.Tuple[T] {
	var out []ring.Tuple[T]
	for len(data) >= 4+width && len(out) < maxFuzzTuples {
		idx := int32(binary.LittleEndian.Uint32(data) &^ (1 << 31))
		out = append(out, ring.Tuple[T]{Idx: idx, Val: val(data[4 : 4+width])})
		data = data[4+width:]
	}
	return out
}

// checkTupleCodec asserts the codec's contract on one chunk: EncodeSlice
// appends exactly EncodedLen words after whatever the buffer held,
// DecodeSlice gives the tuples back, and CountFor inverts EncodedLen —
// recovering the count from the chunk's length and answering −1 for every
// word count no tuple count occupies.
func checkTupleCodec[T comparable](t *testing.T, tc ring.TupleCodec[T], tups []ring.Tuple[T]) {
	t.Helper()
	k := len(tups)
	prefix := []ring.Word{0xdead, 0xbeef}
	enc, vbuf := tc.EncodeSlice(append([]ring.Word(nil), prefix...), tups, nil)
	chunk := enc[len(prefix):]
	if len(chunk) != tc.EncodedLen(k) {
		t.Fatalf("%d tuples encoded into %d words, EncodedLen says %d", k, len(chunk), tc.EncodedLen(k))
	}
	if enc[0] != prefix[0] || enc[1] != prefix[1] {
		t.Fatal("encoding overwrote the words before the chunk")
	}
	out := make([]ring.Tuple[T], k)
	tc.DecodeSlice(out, chunk, vbuf)
	for i := range out {
		if out[i] != tups[i] {
			t.Fatalf("tuple %d decoded as %+v, want %+v", i, out[i], tups[i])
		}
	}
	next := 0 // the smallest count whose chunk is not shorter than w
	for w := 0; w <= len(chunk)+1; w++ {
		for tc.EncodedLen(next) < w {
			next++
		}
		want := -1
		if tc.EncodedLen(next) == w {
			want = next
		}
		if got := tc.CountFor(w); got != want {
			t.Fatalf("CountFor(%d) = %d, want %d", w, got, want)
		}
	}
}

// FuzzTupleCodec: every message the tile engine sends is one TupleCodec
// chunk, so for any tuples, with int64, min-plus or bit-packed Boolean
// values and indices up to 2³¹−1, a chunk must round-trip and its length
// must give its tuple count back. Byte 0 of the input picks the value codec
// (mod 3); the rest is tuples (tuplesFromBytes). The seeds are the
// committed corpus under testdata/fuzz/FuzzTupleCodec.
func FuzzTupleCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		word := func(b []byte) int64 { return int64(binary.LittleEndian.Uint64(b)) }
		switch data[0] % 3 {
		case 0:
			checkTupleCodec(t, ring.NewTupleCodec[int64](ring.Int64{}), tuplesFromBytes(data[1:], 8, word))
		case 1:
			checkTupleCodec(t, ring.NewTupleCodec[int64](ring.MinPlus{}), tuplesFromBytes(data[1:], 8, func(b []byte) int64 {
				if v := word(b); v > -ring.Inf && v < ring.Inf {
					return v
				}
				return ring.Inf
			}))
		default:
			checkTupleCodec(t, ring.NewTupleCodec[int64](ring.PackedBit{}), tuplesFromBytes(data[1:], 1, func(b []byte) int64 {
				return int64(b[0] & 1)
			}))
		}
	})
}
