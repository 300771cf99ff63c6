package ccmm

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// taggedDistanceProduct is the definition DistanceProduct3D must meet: the
// §3.3 tagging applied to the operands before anything travels — every S
// entry untagged, every finite T entry tagged with its row index, every
// infinite one the MinPlusW zero — then the plain 3D product over MinPlusW,
// untagged into values and witnesses with infinities normalised.
func taggedDistanceProduct(t *testing.T, n int, s, u *RowMat[int64]) (p, q *RowMat[int64], st clique.Stats) {
	t.Helper()
	sw, tw := NewRowMat[ring.ValW](n), NewRowMat[ring.ValW](n)
	for v := 0; v < n; v++ {
		for j := 0; j < n; j++ {
			sw.Rows[v][j] = ring.ValW{V: s.Rows[v][j], W: ring.NoWitness}
			if x := u.Rows[v][j]; ring.IsInf(x) {
				tw.Rows[v][j] = ring.ValW{V: ring.Inf, W: ring.NoWitness}
			} else {
				tw.Rows[v][j] = ring.ValW{V: x, W: int64(v)}
			}
		}
	}
	mw := ring.MinPlusW{}
	pw, st := mulOn[ring.ValW](t, n, clique.TransportDirect, func(net *clique.Network, sc *Scratch) (*RowMat[ring.ValW], error) {
		return Semiring3D[ring.ValW](net, sc, mw, mw, sw, tw)
	})
	p, q = NewRowMat[int64](n), NewRowMat[int64](n)
	for v := 0; v < n; v++ {
		for j, e := range pw.Rows[v] {
			p.Rows[v][j], q.Rows[v][j] = e.V, e.W
			if ring.IsInf(e.V) {
				p.Rows[v][j], q.Rows[v][j] = ring.Inf, ring.NoWitness
			}
		}
	}
	return p, q, st
}

// phaseOf returns the named phase of a one-product ledger.
func phaseOf(t *testing.T, st clique.Stats, name string) clique.PhaseStat {
	t.Helper()
	for _, ph := range st.Phases {
		if ph.Name == name {
			return ph
		}
	}
	t.Fatalf("no phase %q in %+v", name, st.Phases)
	return clique.PhaseStat{}
}

// TestWitnessProductMatchesTaggedDefinition pins that tagging T at the
// multiplying node instead of before shipping changes nothing but the
// operands' width: values and witnesses are bit-identical to the tagged
// definition on every transport, the distribute phase costs what a plain
// min-plus product's does, and the products phase what a tagged one's does.
// The weights cover negative entries, entries at and above Inf (whose sums
// must clamp), and all-equal weights, where only the tie-break toward the
// smaller witness decides.
func TestWitnessProductMatchesTaggedDefinition(t *testing.T) {
	beyond := []int64{ring.Inf - 1, ring.Inf, ring.Inf + 5}
	weights := []struct {
		name string
		gen  func(*rand.Rand) int64
	}{
		{"negative", genMinPlus},
		{"beyond-inf", func(rng *rand.Rand) int64 {
			if rng.IntN(2) == 0 {
				return beyond[rng.IntN(len(beyond))]
			}
			return rng.Int64N(40) - 20
		}},
		{"ties", func(*rand.Rand) int64 { return 3 }},
	}
	mp := ring.MinPlus{}
	for _, n := range []int{1, 2, 5, 9, 27, 30, 64, 100, 144} {
		for _, wt := range weights {
			t.Run(fmt.Sprintf("%s/n=%d", wt.name, n), func(t *testing.T) {
				rng := rand.New(rand.NewPCG(30, uint64(n)))
				s, u := randMat(rng, n, 0.8, ring.Inf, wt.gen), randMat(rng, n, 0.8, ring.Inf, wt.gen)
				wantP, wantQ, tagged := taggedDistanceProduct(t, n, s, u)
				_, plain := mulOn[int64](t, n, clique.TransportDirect, func(net *clique.Network, sc *Scratch) (*RowMat[int64], error) {
					return Semiring3D[int64](net, sc, mp, mp, s, u)
				})
				var direct clique.Stats
				for _, tr := range []clique.Transport{clique.TransportDirect, clique.TransportWire} {
					net := clique.New(n, clique.WithTransport(tr))
					p, q, err := DistanceProduct3D(net, NewScratch(), s, u, -1)
					if err != nil {
						t.Fatalf("%v: %v", tr, err)
					}
					if !reflect.DeepEqual(p.Rows, wantP.Rows) || !reflect.DeepEqual(q.Rows, wantQ.Rows) {
						t.Fatalf("%v: product or witnesses differ from the tagged definition", tr)
					}
					st := net.Stats()
					net.Close()
					if tr == clique.TransportDirect {
						direct = st
					} else if !reflect.DeepEqual(st, direct) {
						t.Errorf("%v charged %+v, direct %+v", tr, st, direct)
					}
					if got, want := phaseOf(t, st, "mm3d/distribute"), phaseOf(t, plain, "mm3d/distribute"); got != want {
						t.Errorf("%v: distribute charged %+v, a min-plus product %+v", tr, got, want)
					}
					if got, want := phaseOf(t, st, "mm3d/products"), phaseOf(t, tagged, "mm3d/products"); got != want {
						t.Errorf("%v: products charged %+v, a tagged product %+v", tr, got, want)
					}
				}
			})
		}
	}
}
