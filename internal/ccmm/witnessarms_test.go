package ccmm_test

import (
	"math/rand/v2"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/distance"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// TestDistanceProductsShareInt64WorkingSet pins that a bounded witnessed
// distance product multiplies, ships and assembles int64 keys (value·2^w +
// witness) over plain min-plus: a warm APSP on non-negative weights —
// every squaring bounded by its hop bound, every routing table a bounded
// witnessed product — and a distance product on one network leave its
// working set with int64's arms alone on either transport. A ValW arm
// belongs to the full-width path only, which a negative weight takes.
func TestDistanceProductsShareInt64WorkingSet(t *testing.T) {
	const n = 64
	g := graphs.RandomConnectedWeighted(n, 0.1, 30, false, 7)
	rng := rand.New(rand.NewPCG(45, n))
	rows := func() *ccmm.RowMat[int64] {
		m := ccmm.NewRowMat[int64](n)
		for _, row := range m.Rows {
			for j := range row {
				row[j] = ring.Inf
				if rng.Float64() < 0.5 {
					row[j] = rng.Int64N(100)
				}
			}
		}
		return m
	}
	a, b := rows(), rows()
	for _, tr := range []clique.Transport{clique.TransportDirect, clique.TransportWire} {
		net := clique.New(n, clique.WithTransport(tr))
		defer net.Close()
		for range 2 { // the second APSP runs warm
			if _, err := distance.APSPSemiring(net, g); err != nil {
				t.Fatalf("%v APSP: %v", tr, err)
			}
		}
		if _, _, err := ccmm.PlanFor(n, ccmm.EngineAuto).MulMinPlusRouted(net, nil, a, b); err != nil {
			t.Fatalf("%v distance product: %v", tr, err)
		}
		sc := ccmm.ScratchOf(net)
		for _, arm := range ccmm.ForeignArms(sc) {
			t.Errorf("%v: the working set holds a %s arm beside int64's", tr, arm)
		}
	}
}
