package ccmm

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// TestNetworkTrimReleasesWorkingSet checks the network's own working set —
// what a nil scratch resolves to — is one object across products, holds
// what a product accumulated (typed arms, link lists, the wire port's
// receive arenas), goes with Network.Trim, and rebuilds into a correct
// product afterwards.
func TestNetworkTrimReleasesWorkingSet(t *testing.T) {
	const n = 27
	rng := rand.New(rand.NewPCG(7, n))
	s, u := randIntMat(rng, n, 50), randIntMat(rng, n, 50)
	r := ring.Int64{}
	for _, tr := range []clique.Transport{clique.TransportDirect, clique.TransportWire} {
		net := clique.New(n, clique.WithTransport(tr))
		defer net.Close()
		if net.EngineState() != nil {
			t.Fatalf("%v: a new network already has a working set", tr)
		}
		first, err := Semiring3D[int64](net, nil, r, r, s, u)
		if err != nil {
			t.Fatal(err)
		}
		sc := ScratchOf(net)
		if net.EngineState() != any(sc) || ScratchOf(net) != sc {
			t.Fatalf("%v: ScratchOf is not the one object in the network's slot", tr)
		}
		if len(sc.typed) == 0 || (tr == clique.TransportWire && len(typedFrom[int64](sc).recv) == 0) {
			t.Fatalf("%v sanity: a nil-scratch product left nothing in the network's working set", tr)
		}
		PutMat(sc, first)
		if again := GetMat[int64](sc, n); again != first {
			t.Fatalf("%v: the free list did not hand back the matrix just returned", tr)
		}
		net.Trim()
		if net.EngineState() != nil {
			t.Fatalf("%v: Trim kept the working set", tr)
		}
		net.Reset()
		again, err := Semiring3D[int64](net, nil, r, r, s, u)
		if err != nil {
			t.Fatal(err)
		}
		if ScratchOf(net) == sc {
			t.Fatalf("%v: the working set survived Trim", tr)
		}
		if !reflect.DeepEqual(first.Rows, again.Rows) {
			t.Fatalf("%v: product changed after Trim", tr)
		}
	}
}
