package ring_test

import (
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ring"
)

// roundTrip checks EncodeSlice/DecodeSlice against each other and, for the
// fixed-width codecs, against the per-element layout they must preserve.
func roundTrip[T any](t *testing.T, name string, c ring.BulkCodec[T], vals []T, eq func(a, b T) bool, fixedWidth bool) {
	t.Helper()
	enc := c.EncodeSlice(nil, vals)
	if len(enc) != c.EncodedLen(len(vals)) {
		t.Fatalf("%s: EncodeSlice produced %d words, EncodedLen says %d", name, len(enc), c.EncodedLen(len(vals)))
	}
	out := make([]T, len(vals))
	c.DecodeSlice(out, enc)
	for i := range vals {
		if !eq(vals[i], out[i]) {
			t.Fatalf("%s: round trip mismatch at %d: %v != %v", name, i, vals[i], out[i])
		}
	}
	if !fixedWidth {
		return
	}
	// Fixed-width codecs must keep the wire format of the per-element path:
	// the bulk encoding is its concatenation, bit for bit.
	w := c.Width()
	if c.EncodedLen(len(vals)) != w*len(vals) {
		t.Fatalf("%s: fixed-width EncodedLen(%d) = %d, want %d", name, len(vals), c.EncodedLen(len(vals)), w*len(vals))
	}
	ref := make([]ring.Word, w*len(vals))
	for i, v := range vals {
		c.Encode(v, ref[i*w:(i+1)*w])
	}
	for i := range ref {
		if ref[i] != enc[i] {
			t.Fatalf("%s: bulk encoding differs from per-element layout at word %d: %#x != %#x", name, i, enc[i], ref[i])
		}
	}
	// And the adapter over the bare per-element methods must agree too.
	adapted := ring.AsBulk[T](perElementOnly[T]{c}).EncodeSlice(nil, vals)
	for i := range ref {
		if adapted[i] != ref[i] {
			t.Fatalf("%s: AsBulk adapter layout differs at word %d", name, i)
		}
	}
}

// perElementOnly hides a codec's bulk methods so AsBulk takes the adapter
// path.
type perElementOnly[T any] struct {
	c ring.Codec[T]
}

func (p perElementOnly[T]) Width() int                  { return p.c.Width() }
func (p perElementOnly[T]) Encode(v T, dst []ring.Word) { p.c.Encode(v, dst) }
func (p perElementOnly[T]) Decode(src []ring.Word) T    { return p.c.Decode(src) }

func TestBulkCodecsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	const k = 257 // deliberately not a multiple of 64

	ints := make([]int64, k)
	for i := range ints {
		ints[i] = rng.Int64() - rng.Int64()
	}
	roundTrip(t, "Int64", ring.Int64{}, ints, func(a, b int64) bool { return a == b }, true)
	roundTrip(t, "Zp", ring.NewZp(101), ints, func(a, b int64) bool { return a == b }, true)

	mps := make([]int64, k)
	for i := range mps {
		if rng.IntN(4) == 0 {
			mps[i] = ring.Inf
		} else {
			mps[i] = rng.Int64N(1 << 40)
		}
	}
	roundTrip(t, "MinPlus", ring.MinPlus{}, mps, func(a, b int64) bool { return a == b }, true)

	valws := make([]ring.ValW, k)
	for i := range valws {
		valws[i] = ring.ValW{V: rng.Int64N(1 << 40), W: int64(rng.IntN(100)) - 1}
	}
	roundTrip(t, "MinPlusW", ring.MinPlusW{}, valws, func(a, b ring.ValW) bool { return a == b }, true)

	bools, truths := make([]bool, k), make([]int64, k)
	for i := range bools {
		bools[i] = rng.IntN(2) == 1
		truths[i] = rng.Int64N(5) - 2
	}
	roundTrip(t, "PackedBool", ring.PackedBool{}, bools, func(a, b bool) bool { return a == b }, false)
	roundTrip(t, "PackedBit", ring.PackedBit{}, truths, ring.Bool{}.Equal, false)
}

// TestPackedBoolLayout pins the packed transport: ⌈k/64⌉ words, element i
// in bit i%64 of word i/64, trailing bits zero, and stale destination words
// fully overwritten.
func TestPackedBoolLayout(t *testing.T) {
	p := ring.PackedBool{}
	for _, k := range []int{0, 1, 63, 64, 65, 128, 200} {
		if got, want := p.EncodedLen(k), (k+63)/64; got != want {
			t.Fatalf("EncodedLen(%d) = %d, want %d", k, got, want)
		}
	}
	vals := make([]bool, 130)
	vals[0], vals[63], vals[64], vals[129] = true, true, true, true
	// Seed dst with garbage capacity to check words are fully rewritten.
	dst := append(make([]ring.Word, 0, 8), 0xdead)
	enc := p.EncodeSlice(dst[:1], vals)[1:]
	if len(enc) != 3 {
		t.Fatalf("encoded length %d, want 3", len(enc))
	}
	if enc[0] != 1|1<<63 || enc[1] != 1 || enc[2] != 1<<1 {
		t.Fatalf("packed layout wrong: %#x %#x %#x", enc[0], enc[1], enc[2])
	}
	out := make([]bool, len(vals))
	p.DecodeSlice(out, enc)
	for i := range vals {
		if out[i] != vals[i] {
			t.Fatalf("bit %d round-tripped wrong", i)
		}
	}
	// Single-element encoding is the 0/1 word.
	var one [1]ring.Word
	p.Encode(true, one[:])
	if one[0] != 1 || !p.Decode(one[:]) {
		t.Fatal("single-element encoding must be the 0/1 word")
	}
}

// TestBulkAppendPreservesPrefix checks that EncodeSlice appends without
// disturbing already-encoded chunks — the chunk-concatenation contract the
// engines rely on for multi-part messages.
func TestBulkAppendPreservesPrefix(t *testing.T) {
	p := ring.PackedBit{}
	a := []int64{1, 0, 1}
	b := []int64{0, 1}
	msg := p.EncodeSlice(nil, a)
	msg = p.EncodeSlice(msg, b)
	if len(msg) != p.EncodedLen(len(a))+p.EncodedLen(len(b)) {
		t.Fatalf("chunked message length %d", len(msg))
	}
	gotA := make([]int64, len(a))
	gotB := make([]int64, len(b))
	p.DecodeSlice(gotA, msg)
	p.DecodeSlice(gotB, msg[p.EncodedLen(len(a)):])
	for i := range a {
		if gotA[i] != a[i] {
			t.Fatalf("chunk A bit %d wrong", i)
		}
	}
	for i := range b {
		if gotB[i] != b[i] {
			t.Fatalf("chunk B bit %d wrong", i)
		}
	}
}

// TestPackedWidthOneIsPackedBool pins PackedBool as the b = 1 case of the
// packing layout: for every length 0 … 200 the width-1 bounded min-plus
// form's chunk of 0 / Inf is PackedBool's chunk of false / true word for
// word, and so is PackedBit's chunk of the same truth values — entries
// other than 0 and 1 packing as true — which decodes to 0/1.
func TestPackedWidthOneIsPackedBool(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	mp := ring.PackedMinPlus{Bits: ring.MinPlusBits(0), Max: 0}
	if mp.Bits != 1 {
		t.Fatalf("MinPlusBits(0) = %d, want 1", mp.Bits)
	}
	for k := 0; k <= 200; k++ {
		bools, dists, truths := make([]bool, k), make([]int64, k), make([]int64, k)
		for i := range bools {
			bools[i] = rng.IntN(2) == 1
			if bools[i] {
				dists[i] = ring.Inf
				truths[i] = []int64{1, -1, 2, ring.Inf}[rng.IntN(4)]
			}
		}
		want := ring.PackedBool{}.EncodeSlice(nil, bools)
		if got := mp.EncodeSlice(nil, dists); !slices.Equal(got, want) {
			t.Fatalf("k=%d: width-1 min-plus chunk %x, PackedBool's %x", k, got, want)
		}
		if got := (ring.PackedBit{}).EncodeSlice(nil, truths); !slices.Equal(got, want) {
			t.Fatalf("k=%d: PackedBit chunk %x, PackedBool's %x", k, got, want)
		}
		back := make([]int64, k)
		ring.PackedBit{}.DecodeSlice(back, want)
		for i, v := range truths {
			if want := (ring.Bool{}).Add(v, 0); back[i] != want {
				t.Fatalf("k=%d: PackedBit decoded entry %d (%d) as %d, want %d", k, i, v, back[i], want)
			}
		}
	}
}

// TestPackedLayoutAndClamp pins the layout itself — ⌊64/b⌋ entries per
// word, entry i at bit (i mod per)·b of word i/per — and the bounded
// min-plus form's sentinel and clamp at the width the bound asks for: the
// bound B itself travels, and B + 1, 2B, a negative value and Inf arrive
// as Inf. The residue form at IntBits(B) bits has no sentinel: B travels,
// and B + 1 and −1 arrive as their residues.
func TestPackedLayoutAndClamp(t *testing.T) {
	for _, tc := range []struct {
		max  int64
		bits int
	}{{0, 1}, {1, 1}, {2, 2}, {15, 4}, {144, 8}, {20736, 15}, {1<<63 - 1, 63}} {
		c := ring.PackedInt{Bits: ring.IntBits(tc.max)}
		if c.Bits != tc.bits {
			t.Fatalf("IntBits(%d) = %d, want %d", tc.max, c.Bits, tc.bits)
		}
		mod := uint64(1) << c.Bits
		in := []int64{tc.max, tc.max + 1, -1}
		want := []int64{tc.max, int64(uint64(tc.max+1) % mod), int64(mod - 1)}
		out := make([]int64, len(in))
		c.DecodeSlice(out, c.EncodeSlice(nil, in))
		if !slices.Equal(out, want) {
			t.Fatalf("%d-bit residues: %v arrive as %v, want %v", c.Bits, in, out, want)
		}
	}
	if enc := (ring.PackedInt{Bits: 15}).EncodeSlice(nil, []int64{1, 2, 3, 4, 5}); len(enc) != 2 || enc[0] != 1|2<<15|3<<30|4<<45 || enc[1] != 5 {
		t.Fatalf("15-bit residue layout %#x, want 4 entries in word 0 and 1 in word 1", enc)
	}
	enc := ring.PackedMinPlus{Bits: 14, Max: 100}.EncodeSlice(nil, []int64{1, 2, 3, 4, 5})
	if len(enc) != 2 || enc[0] != 1|2<<14|3<<28|4<<42 || enc[1] != 5 {
		t.Fatalf("14-bit layout %#x, want 4 entries in word 0 and 1 in word 1", enc)
	}
	for _, tc := range []struct {
		max  int64
		bits int
	}{{0, 1}, {1, 2}, {2, 2}, {14, 4}, {15, 5}, {14300, 14}, {ring.Inf - 1, 61}} {
		c := ring.PackedMinPlus{Bits: ring.MinPlusBits(tc.max), Max: tc.max}
		if c.Bits != tc.bits {
			t.Fatalf("MinPlusBits(%d) = %d, want %d", tc.max, c.Bits, tc.bits)
		}
		in := []int64{tc.max, tc.max + 1, 2 * tc.max, 0, -1, ring.Inf}
		want := []int64{tc.max, ring.Inf, ring.Inf, 0, ring.Inf, ring.Inf}
		if tc.max == 0 {
			want[2] = 0 // 2·0 is in range
		}
		out := make([]int64, len(in))
		c.DecodeSlice(out, c.EncodeSlice(nil, in))
		if !slices.Equal(out, want) {
			t.Fatalf("max %d: %v arrives as %v, want %v", tc.max, in, out, want)
		}
	}
}
