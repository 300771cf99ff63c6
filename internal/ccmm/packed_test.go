package ccmm

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// maxFinite returns the largest finite entry of the given matrices (0 when
// there is none).
func maxFinite(ms ...*RowMat[int64]) int64 {
	var m int64
	for _, x := range ms {
		for _, row := range x.Rows {
			for _, e := range row {
				if !ring.IsInf(e) {
					m = max(m, e)
				}
			}
		}
	}
	return m
}

// boundsFrom returns the bounds a product whose finite entries reach top
// is run at: top itself, the next bound whose sentinel is B + 1 (B + 2 a
// power of two), and the next whose B + 1 needs a fresh bit (B + 1 a power
// of two), so both edges of the value field are crossed.
func boundsFrom(top int64) []int64 {
	out := []int64{top}
	for k := 1; k < 62; k++ {
		if b := int64(1)<<k - 2; b > top {
			out = append(out, b, b+1)
			break
		}
	}
	return out
}

// TestPackedDistanceProductMatchesFullWidth: at a bound that covers every
// finite entry of S, of T and of the product, the packed distance product
// returns P and Q bit-identical to the full-width one on the direct and
// the wire transport, with the same ledger on both and fewer words than
// full width. The inputs give it what can go wrong:
//
//   - partial sums above B: dense random entries whose partial products
//     reach about 2B, so the wire clamps them in every subcube;
//   - zero weights, where most sums are 0;
//   - unreachable blocks: whole middle groups of S and row blocks of T at
//     Inf, so entire partials travel as the sentinel;
//   - witness ties: one value everywhere, where only the tie-break toward
//     the smaller witness decides — the key order must be MinPlusW.Less;
//   - keys at the headroom: entries whose field, with the witness bits,
//     fills the keys' maxKeyBits, so partials above the field's top code
//     reach 2^61 · 5/8 unclamped on the direct transport.
//
// Each runs at the tightest bound and at the bounds where B + 1 is the
// sentinel or needs a fresh bit, and at a bound whose keys would pass
// maxKeyBits: that one runs at full width, with the full-width ledger.
// The key codec the engine ships partials in is the one of B's field
// width, whose top code 2^b − 2 is at least B: it must keep the keys of B
// and of that top code and clamp the key of the first value above it to
// ∞.
func TestPackedDistanceProductMatchesFullWidth(t *testing.T) {
	inputs := []struct {
		name string
		gen  func(rng *rand.Rand, n int) (s, u *RowMat[int64])
	}{
		{"partial-sums-above-bound", func(rng *rand.Rand, n int) (*RowMat[int64], *RowMat[int64]) {
			gen := func(rng *rand.Rand) int64 { return rng.Int64N(int64(8*n) + 1) }
			return randMat(rng, n, 0.85, ring.Inf, gen), randMat(rng, n, 0.85, ring.Inf, gen)
		}},
		{"zero-weights", func(rng *rand.Rand, n int) (*RowMat[int64], *RowMat[int64]) {
			gen := func(rng *rand.Rand) int64 { return max(0, rng.Int64N(5)-3) }
			return randMat(rng, n, 0.7, ring.Inf, gen), randMat(rng, n, 0.7, ring.Inf, gen)
		}},
		{"unreachable-blocks", func(rng *rand.Rand, n int) (*RowMat[int64], *RowMat[int64]) {
			gen := func(rng *rand.Rand) int64 { return rng.Int64N(50) }
			s, u := randMat(rng, n, 0.9, ring.Inf, gen), randMat(rng, n, 0.9, ring.Inf, gen)
			for v := range n {
				for j := range n {
					if j >= n/3 && j < 2*n/3 {
						s.Rows[v][j] = ring.Inf
					}
					if v < n/2 && j%4 == 1 {
						u.Rows[v][j] = ring.Inf
					}
				}
			}
			return s, u
		}},
		{"witness-ties", func(rng *rand.Rand, n int) (*RowMat[int64], *RowMat[int64]) {
			gen := func(*rand.Rand) int64 { return 3 }
			return randMat(rng, n, 0.6, ring.Inf, gen), randMat(rng, n, 0.6, ring.Inf, gen)
		}},
		{"keys-at-headroom", func(rng *rand.Rand, n int) (*RowMat[int64], *RowMat[int64]) {
			half := int64(1) << (maxKeyBits - 1 - ring.WitnessBits(n))
			gen := func(rng *rand.Rand) int64 { return half - half/4 + rng.Int64N(half/2) }
			return randMat(rng, n, 0.85, ring.Inf, gen), randMat(rng, n, 0.85, ring.Inf, gen)
		}},
	}
	for _, n := range []int{1, 2, 5, 9, 27, 30, 64, 100, 144} {
		for _, in := range inputs {
			t.Run(fmt.Sprintf("%s/n=%d", in.name, n), func(t *testing.T) {
				s, u := in.gen(rand.New(rand.NewPCG(42, uint64(n))), n)
				run := func(tr clique.Transport, bound int64) (p, q *RowMat[int64], st clique.Stats) {
					net := clique.New(n, clique.WithTransport(tr))
					defer net.Close()
					p, q, err := DistanceProduct3D(net, NewScratch(), s, u, bound)
					if err != nil {
						t.Fatalf("%v, bound %d: %v", tr, bound, err)
					}
					return p, q, net.Stats()
				}
				wantP, wantQ, full := run(clique.TransportDirect, -1)
				w := ring.WitnessBits(n)
				overLimit := int64(1)<<(maxKeyBits-w) - 1
				if o, _, ok := PackedWidths(overLimit, n); ok || o+w != maxKeyBits+1 {
					t.Fatalf("bound %d: %d operand bits, keyed %v; want %d, full width", overLimit, o, ok, maxKeyBits+1-w)
				}
				for _, bound := range append(boundsFrom(maxFinite(s, u, wantP)), overLimit) {
					var direct clique.Stats
					for _, tr := range []clique.Transport{clique.TransportDirect, clique.TransportWire} {
						p, q, st := run(tr, bound)
						if !reflect.DeepEqual(p.Rows, wantP.Rows) || !reflect.DeepEqual(q.Rows, wantQ.Rows) {
							t.Fatalf("%v, bound %d: product or witnesses differ from full width", tr, bound)
						}
						if tr == clique.TransportDirect {
							direct = st
						} else if !reflect.DeepEqual(st, direct) {
							t.Errorf("bound %d: wire charged %+v, direct %+v", bound, st, direct)
						}
					}
					op, _, keyed := PackedWidths(bound, n)
					if !keyed {
						if !reflect.DeepEqual(direct, full) {
							t.Errorf("bound %d past the key limit: charged %+v, full width %+v", bound, direct, full)
						}
						continue
					}
					if full.Words > 0 && direct.Words >= full.Words {
						t.Errorf("bound %d: packed product charged %d words, full width %d", bound, direct.Words, full.Words)
					}
					al := keyedAlgebras[op][w]
					top := al.opCodec.(ring.PackedMinPlus).Max
					if ring.MinPlusBits(top) != ring.MinPlusBits(bound) || top < bound {
						t.Fatalf("bound %d: codec top %d, want the top code of its %d-bit field", bound, top, ring.MinPlusBits(bound))
					}
					key := func(v, wit int64) int64 { return v<<w | wit }
					pc := ring.AsBulk(al.codec)
					sent := []int64{key(bound, int64(n-1)), key(top, int64(n-1)), key(top, 0), key(top+1, 0), key(2*top+1, 0)}
					got := make([]int64, len(sent))
					pc.DecodeSlice(got, pc.EncodeSlice(nil, sent))
					if want := []int64{sent[0], sent[1], sent[2], ring.Inf, ring.Inf}; !slices.Equal(got, want) {
						t.Errorf("bound %d: partial keys %v arrive as %v, want %v", bound, sent, got, want)
					}
				}
			})
		}
	}
}

// TestPackedChunksCountFor: the engines' dense message format (chunks)
// must invert its EncodedLen for the packed forms at every width — the
// operands' and the partials' keys' alike — or a wire receiver could not
// tell how many block rows arrived.
func TestPackedChunksCountFor(t *testing.T) {
	for b := 1; b <= 64; b++ {
		max := int64(ring.Inf - 1)
		if b < 62 {
			max = int64(1)<<b - 2
		}
		mp := ring.PackedMinPlus{Bits: b, Max: max}
		for _, size := range []int{1, 2, 5, 29, 63, 64, 65, 130} {
			f := chunks[int64]{mp, size}
			for m := range 5 {
				if got := f.CountFor(f.EncodedLen(m * size)); got != m*size {
					t.Fatalf("min-plus b=%d size %d: CountFor(EncodedLen(%d)) = %d", b, size, m*size, got)
				}
			}
		}
	}
}

// TestBoundedIntProductHitsBound: a bounded integer product ships its
// entries as residues mod 2^b (ring.PackedInt) and must still return the
// exact product when an entry sits at the bound itself, the all-ones field.
// On K_n, A² is n − 1 on the diagonal and n − 2 elsewhere; at n = 16 and
// 64 the bound n − 1 is 2^b − 1. Every dense engine runs it on both
// transports — the bilinear one on Strassen's scheme and its square,
// whose subtractions leave negative intermediates that only the
// homomorphism Z → Z/2^b makes exact on the wire — and must return A²
// with the same ledger on either, in fewer words than at full width.
func TestBoundedIntProductHitsBound(t *testing.T) {
	for _, n := range []int{16, 64} {
		a := NewRowMat[int64](n)
		for v, row := range a.Rows {
			for j := range row {
				if j != v {
					row[j] = 1
				}
			}
		}
		bound := int64(n - 1)
		if b := ring.IntBits(bound); bound != int64(1)<<b-1 {
			t.Fatalf("n=%d: bound %d is not the all-ones %d-bit field", n, bound, b)
		}
		scheme := PlanFor(n, EngineFast).Scheme
		negative := false
		for _, terms := range slices.Concat(scheme.Alpha, scheme.Beta, scheme.Lambda) {
			for _, term := range terms {
				negative = negative || term.C < 0
			}
		}
		if !negative {
			t.Fatalf("n=%d: scheme %v has no subtraction", n, scheme)
		}
		for _, e := range []Engine{EngineFast, Engine3D, EngineNaive} {
			run := func(tr clique.Transport, bound int64) (*RowMat[int64], clique.Stats) {
				net := clique.New(n, clique.WithTransport(tr))
				defer net.Close()
				p, err := MulIntWith(net, e, NewScratch(), a, a, bound)
				if err != nil {
					t.Fatalf("n=%d %v %v bound %d: %v", n, e, tr, bound, err)
				}
				return p, net.Stats()
			}
			_, full := run(clique.TransportDirect, -1)
			p, direct := run(clique.TransportDirect, bound)
			pw, wire := run(clique.TransportWire, bound)
			for v := range n {
				for j := range n {
					want := bound - 1
					if j == v {
						want = bound
					}
					if p.Rows[v][j] != want || pw.Rows[v][j] != want {
						t.Fatalf("n=%d %v: A²[%d][%d] = %d direct, %d wire; want %d", n, e, v, j, p.Rows[v][j], pw.Rows[v][j], want)
					}
				}
			}
			if !reflect.DeepEqual(direct, wire) {
				t.Errorf("n=%d %v: wire charged %+v, direct %+v", n, e, wire, direct)
			}
			if direct.Words >= full.Words {
				t.Errorf("n=%d %v: packed product charged %d words, full width %d", n, e, direct.Words, full.Words)
			}
		}
	}
}
