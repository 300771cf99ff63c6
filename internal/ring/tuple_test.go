package ring_test

import (
	"math/rand/v2"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ring"
)

func roundTripTuples[T any](t *testing.T, name string, codec ring.Codec[T], gen func(rng *rand.Rand) T, eq func(a, b T) bool) {
	t.Helper()
	tc := ring.NewTupleCodec[T](codec)
	rng := rand.New(rand.NewPCG(7, 7))
	for _, k := range []int{0, 1, 2, 63, 64, 65, 200} {
		tups := make([]ring.Tuple[T], k)
		for i := range tups {
			tups[i] = ring.Tuple[T]{Idx: int32(rng.IntN(1 << 20)), Val: gen(rng)}
		}
		// Encode at a nonzero offset: chunks must append cleanly.
		prefix := []ring.Word{0xdead, 0xbeef}
		enc, vbuf := tc.EncodeSlice(append([]ring.Word(nil), prefix...), tups, nil)
		chunk := enc[len(prefix):]
		if len(chunk) != tc.EncodedLen(k) {
			t.Fatalf("%s k=%d: encoded %d words, EncodedLen says %d", name, k, len(chunk), tc.EncodedLen(k))
		}
		if got := tc.CountFor(len(chunk)); got != k {
			t.Fatalf("%s k=%d: CountFor(%d) = %d", name, k, len(chunk), got)
		}
		out := make([]ring.Tuple[T], k)
		tc.DecodeSlice(out, chunk, vbuf)
		for i := range out {
			if out[i].Idx != tups[i].Idx || !eq(out[i].Val, tups[i].Val) {
				t.Fatalf("%s k=%d: tuple %d decoded as %+v, want %+v", name, k, i, out[i], tups[i])
			}
		}
	}
}

func TestTupleCodecRoundTrip(t *testing.T) {
	eqI := func(a, b int64) bool { return a == b }
	roundTripTuples[int64](t, "int64", ring.Int64{}, func(rng *rand.Rand) int64 { return rng.Int64N(1 << 40) }, eqI)
	roundTripTuples[int64](t, "min-plus", ring.MinPlus{}, func(rng *rand.Rand) int64 {
		if rng.IntN(4) == 0 {
			return ring.Inf
		}
		return rng.Int64N(1000)
	}, eqI)
	roundTripTuples[int64](t, "zp", ring.NewZp(1_000_003), func(rng *rand.Rand) int64 { return rng.Int64N(1_000_003) }, eqI)
	roundTripTuples[ring.ValW](t, "min-plus-w", ring.MinPlusW{}, func(rng *rand.Rand) ring.ValW {
		return ring.ValW{V: rng.Int64N(1000), W: rng.Int64N(64)}
	}, func(a, b ring.ValW) bool { return a == b })
	roundTripTuples[int64](t, "packed-bool", ring.PackedBit{}, func(rng *rand.Rand) int64 { return rng.Int64N(5) - 2 }, ring.Bool{}.Equal)
}

// The packed tuple stream must keep PackedBit's compression: k tuples
// cost k index words plus ⌈k/64⌉ value words, not 2k.
func TestTupleCodecPackedLen(t *testing.T) {
	tc := ring.NewTupleCodec[int64](ring.PackedBit{})
	for _, k := range []int{1, 64, 65, 128, 1000} {
		want := k + (k+63)/64
		if got := tc.EncodedLen(k); got != want {
			t.Errorf("EncodedLen(%d) = %d, want %d", k, got, want)
		}
	}
}

// The index word must carry row ids from graphs far larger than 2¹⁶
// nodes without truncation: CSR products at n = 10⁵⁺ ship tuple streams
// whose Idx values exceed any 16-bit packing, and the codec's contract is
// the full non-negative int32 range. Exercised across a value codec of
// every width — 1-word int64, the 2-word ValW pair, and the sub-word
// packed Boolean, whose bit-packing must never bleed into index words.
func TestTupleCodecWideIndices(t *testing.T) {
	idxs := []int32{0, 1<<16 - 1, 1 << 16, 100_000, 1_000_000, 1 << 30, 1<<31 - 1}
	check := func(name string, decoded []int32) {
		t.Helper()
		for i, want := range idxs {
			if decoded[i] != want {
				t.Fatalf("%s: index %d decoded as %d, want %d", name, i, decoded[i], want)
			}
		}
	}
	{
		tc := ring.NewTupleCodec[int64](ring.Int64{})
		tups := make([]ring.Tuple[int64], len(idxs))
		for i, x := range idxs {
			tups[i] = ring.Tuple[int64]{Idx: x, Val: int64(i + 1)}
		}
		enc, vbuf := tc.EncodeSlice(nil, tups, nil)
		out := make([]ring.Tuple[int64], len(idxs))
		tc.DecodeSlice(out, enc, vbuf)
		got := make([]int32, len(out))
		for i := range out {
			got[i] = out[i].Idx
			if out[i].Val != int64(i+1) {
				t.Fatalf("int64: value %d decoded as %d", i, out[i].Val)
			}
		}
		check("int64", got)
	}
	{
		tc := ring.NewTupleCodec[ring.ValW](ring.MinPlusW{})
		tups := make([]ring.Tuple[ring.ValW], len(idxs))
		for i, x := range idxs {
			tups[i] = ring.Tuple[ring.ValW]{Idx: x, Val: ring.ValW{V: int64(x), W: int64(i)}}
		}
		enc, vbuf := tc.EncodeSlice(nil, tups, nil)
		out := make([]ring.Tuple[ring.ValW], len(idxs))
		tc.DecodeSlice(out, enc, vbuf)
		got := make([]int32, len(out))
		for i := range out {
			got[i] = out[i].Idx
			if out[i].Val != (ring.ValW{V: int64(idxs[i]), W: int64(i)}) {
				t.Fatalf("min-plus-w: value %d decoded as %+v", i, out[i].Val)
			}
		}
		check("min-plus-w", got)
	}
	{
		tc := ring.NewTupleCodec[int64](ring.PackedBit{})
		tups := make([]ring.Tuple[int64], len(idxs))
		for i, x := range idxs {
			tups[i] = ring.Tuple[int64]{Idx: x, Val: int64(1 - i%2)}
		}
		enc, vbuf := tc.EncodeSlice(nil, tups, nil)
		out := make([]ring.Tuple[int64], len(idxs))
		tc.DecodeSlice(out, enc, vbuf)
		got := make([]int32, len(out))
		for i := range out {
			got[i] = out[i].Idx
			if out[i].Val != int64(1-i%2) {
				t.Fatalf("packed-bool: value %d decoded as %v", i, out[i].Val)
			}
		}
		check("packed-bool", got)
	}
}

// CountFor must reject word counts no chunk length produces.
func TestTupleCodecCountForMalformed(t *testing.T) {
	tc := ring.NewTupleCodec[ring.ValW](ring.MinPlusW{})
	// ValW tuples occupy 3 words each; 4 words is not a chunk length.
	if got := tc.CountFor(4); got != -1 {
		t.Errorf("CountFor(4) = %d, want -1", got)
	}
	if got := tc.CountFor(0); got != 0 {
		t.Errorf("CountFor(0) = %d, want 0", got)
	}
	if got := tc.CountFor(6); got != 2 {
		t.Errorf("CountFor(6) = %d, want 2", got)
	}
}
