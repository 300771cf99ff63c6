package ccmm

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// TestScratchTrimReleasesPools checks Trim drops every pooled structure a
// product accumulated — typed arms, link tallies, and the wire port's word
// matrices — and that the scratch is fully usable (and correct) afterwards.
func TestScratchTrimReleasesPools(t *testing.T) {
	const n = 27
	rng := rand.New(rand.NewPCG(7, n))
	s, u := randIntMat(rng, n, 50), randIntMat(rng, n, 50)
	r := ring.Int64{}
	for _, tr := range []clique.Transport{clique.TransportDirect, clique.TransportWire} {
		net := clique.New(n, clique.WithTransport(tr))
		defer net.Close()
		sc := NewScratch()
		first, err := Semiring3D[int64](net, sc, r, r, s, u)
		if err != nil {
			t.Fatal(err)
		}
		if len(sc.typed) == 0 || (tr == clique.TransportWire && sc.wmsgs == nil) {
			t.Fatalf("%v sanity: product left no scratch state", tr)
		}
		sc.Trim()
		if sc.wmsgs != nil || sc.wgot != nil || sc.wbuf != nil {
			t.Fatalf("%v: Trim kept the wire port's word matrices", tr)
		}
		if sc.typed != nil || sc.offs != nil || sc.wloads != nil {
			t.Fatalf("%v: Trim kept typed arms or link tallies", tr)
		}
		net.Reset()
		again, err := Semiring3D[int64](net, sc, r, r, s, u)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first.Rows, again.Rows) {
			t.Fatalf("%v: product changed after Trim", tr)
		}
	}
}

// TestPayloadPoolCapsSpikes checks the typed payload pool releases entries
// that ballooned past the high-water capacity while keeping modest ones.
func TestPayloadPoolCapsSpikes(t *testing.T) {
	ts := &typedScratch[int64]{}
	m := ts.getPay(2)
	m[0][1] = make([]int64, entryRetainCap+1)
	m[1][0] = make([]int64, 16)
	ts.putPay(m)
	m2 := ts.getPay(2)
	if cap(m2[0][1]) != 0 {
		t.Fatalf("pool kept %d elements of spiked capacity, want 0", cap(m2[0][1]))
	}
	if cap(m2[1][0]) == 0 {
		t.Fatalf("pool dropped the modest buffer's capacity")
	}
}
