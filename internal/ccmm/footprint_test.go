package ccmm

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
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

// TestBoolProductsShareInt64WorkingSet pins that a Boolean product runs on
// the int64 operands it is handed: Boolean products under Auto, 3D, naive
// and sparse — on RowMat and CSR operands — and an integer product on one
// network leave its working set with the int64 element type's arms alone
// (the row arm, and the tile engine's int64 tuple messages), and every
// Boolean product equals the schoolbook one.
func TestBoolProductsShareInt64WorkingSet(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewPCG(44, n))
	dense := [2]*RowMat[int64]{randMat(rng, n, 0.3, 0, genTrue), randMat(rng, n, 0.3, 0, genTrue)}
	sparse := [2]*RowMat[int64]{randMat(rng, n, 2.0/n, 0, genTrue), randMat(rng, n, 2.0/n, 0, genTrue)}
	csr := func(m *RowMat[int64]) *matrix.CSR[int64] {
		return matrix.CSRFromDense(m.Collect(), func(x int64) bool { return x != 0 })
	}
	for _, tr := range []clique.Transport{clique.TransportDirect, clique.TransportWire} {
		net := clique.New(n, clique.WithTransport(tr))
		defer net.Close()
		for _, e := range []Engine{EngineAuto, Engine3D, EngineNaive, EngineSparse} {
			ops := dense
			if e == EngineSparse {
				ops = sparse
			}
			got, _, err := PlanFor(n, e).MulBoolRouted(net, nil, ops[0], ops[1])
			if err != nil {
				t.Fatalf("%v %v: %v", tr, e, err)
			}
			if want := matrix.Mul[int64](ring.Bool{}, ops[0].Collect(), ops[1].Collect()); !reflect.DeepEqual(got.Collect(), want) {
				t.Fatalf("%v %v: Boolean product differs from the schoolbook one", tr, e)
			}
		}
		if _, _, err := PlanFor(n, EngineAuto).MulBoolCSRRouted(net, nil, csr(sparse[0]), csr(sparse[1])); err != nil {
			t.Fatalf("%v CSR: %v", tr, err)
		}
		if _, _, err := PlanFor(n, EngineAuto).MulIntRouted(net, nil, dense[0], dense[1]); err != nil {
			t.Fatalf("%v int: %v", tr, err)
		}
		sc := ScratchOf(net)
		for _, arm := range ForeignArms(sc) {
			t.Errorf("%v: the working set holds a %s arm beside int64's", tr, arm)
		}
		if len(sc.typed) != 3 {
			t.Errorf("%v: %d typed arms, want int64's three", tr, len(sc.typed))
		}
	}
}
