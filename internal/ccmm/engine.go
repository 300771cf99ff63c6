package ccmm

import (
	"fmt"

	"github.com/algebraic-clique/algclique/internal/bilinear"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// Engine selects which distributed multiplication algorithm executes a
// product. The applications (§3 of the paper) are written against this
// abstraction so each can run over the fast bilinear algorithm when the
// clique size allows it and fall back otherwise.
type Engine int

const (
	// EngineAuto resolves a ring product to FastBilinear when a scheme
	// fits the clique size, and otherwise — and every semiring product —
	// to Semiring3D (which runs on any n ≥ 8 via the balanced cube
	// layout), then NaiveGather for tiny cliques. Each product then picks
	// its engine from the predicted costs: the density census may route
	// it through EngineSparse, and a dense-routed product trades
	// FastBilinear for Semiring3D where that is predicted to charge fewer
	// rounds and no more words — every Boolean product, no full-width
	// integer one at the scheme sizes, and some integer ones shipped as
	// narrow residues (see denseEngine in census.go).
	EngineAuto Engine = iota
	// EngineFast forces the bilinear-scheme algorithm (§2.2).
	EngineFast
	// Engine3D forces the semiring 3D algorithm (§2.1).
	Engine3D
	// EngineNaive forces the learn-everything baseline.
	EngineNaive
	// EngineSparse forces the density-aware sparse tile engine (the §1.2
	// remark generalised; see sparsemul.go). It works over any semiring and
	// any n ≥ 8, but only on operands with Σ ca(y)·rb(y) < 2n²
	// (ErrTooDense otherwise). Under EngineAuto the planner routes
	// products through it dynamically when the one-round density census
	// predicts fewer rounds than the resolved dense engine.
	EngineSparse
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case EngineAuto:
		return "auto"
	case EngineFast:
		return "fast-bilinear"
	case Engine3D:
		return "semiring-3d"
	case EngineNaive:
		return "naive-gather"
	case EngineSparse:
		return "sparse"
	default:
		return fmt.Sprintf("engine(%d)", int(e))
	}
}

// Resolve maps EngineAuto to the static engine for an n-node clique:
// FastBilinear for a ring product when a scheme fits, and Semiring3D
// otherwise. ringAlgebra reports whether the product algebra is a ring
// (only rings may use the bilinear engine). Semiring3D handles every
// clique size via the balanced cube layout, so the O(n)-round NaiveGather
// is chosen only for cliques too small (n < 8, other than the trivial cube
// n = 1) for a cube of side two to fit.
//
// The static engine is what the density census prices the dense side at,
// not necessarily what runs: a product's worth depends on its operands'
// density and on how wide its entries travel, which only the router sees.
// Auto plans route a product through EngineSparse when the census says it
// wins, and a dense-routed product runs Semiring3D instead of
// FastBilinear when that is predicted to charge fewer rounds and no more
// words (see Plan and census.go). A forced engine passes through.
func (e Engine) Resolve(n int, ringAlgebra bool) Engine {
	if e != EngineAuto {
		return e
	}
	if ringAlgebra {
		if _, err := bilinear.Pick(n); err == nil {
			return EngineFast
		}
	}
	if n >= 8 || n == 1 {
		return Engine3D
	}
	return EngineNaive
}

// dropRoute discards a routed product's Route, for callers that only want
// the product.
func dropRoute[M any](m M, _ Route, err error) (M, error) { return m, err }

// MulRingWith multiplies two distributed matrices over a ring using the
// chosen engine (resolved through the memoised plan cache) on the working
// set sc, nil for the network's own — the form the reductions use.
func MulRingWith[T any](net *clique.Network, e Engine, sc *Scratch, rg ring.Ring[T], codec ring.Codec[T], s, t *RowMat[T]) (*RowMat[T], error) {
	return dropRoute(MulRingRouted[T](net, PlanFor(net.N(), e), sc, rg, codec, s, t))
}

// MulIntWith multiplies distributed int64 matrices over the integer ring
// on the working set sc (nil for the network's own). bound is the entry
// bound the caller knows without communication. With bound < 0 every
// entry travels as one word. With bound ≥ 0 the caller promises
// non-negative operands whose product has every entry in [0, bound]; every
// entry then travels as its residue mod 2^b, b = ring.IntBits(bound)
// (ring.PackedInt). Every engine computes the product mod 2^b, and under
// the promise that residue is the product: the bilinear engine's last
// exchange ships the finished entries, and every partial sum the other
// engines ship or add is non-negative and at most the entry it sums to.
// Only the wire transport masks; the direct one charges the same packed
// lengths and moves the values by reference, so both return the same
// product.
func MulIntWith(net *clique.Network, e Engine, sc *Scratch, s, t *RowMat[int64], bound int64) (*RowMat[int64], error) {
	a := &intAlgebra
	if bound >= 0 {
		a = &boundedIntAlgebras[ring.IntBits(bound)]
	}
	return dropRoute(mulRowMat(net, PlanFor(net.N(), e), sc, a, s, t))
}

// MulBoolWith computes the Boolean matrix product on the working set sc
// (nil for the network's own). Semiring engines multiply the 0/1 operands
// over the Boolean semiring (ring.Bool, carried in int64) directly,
// shipped through the bit-packed transport (ring.PackedBit): 64 entries
// per word, cutting Boolean-product bandwidth and rounds ~64×, so an Auto
// plan runs a dense Boolean product on Semiring3D. A forced bilinear
// engine computes it in the integer ring and collapses it entrywise to 0/1
// (the entries are walk counts ≤ n, and an entry is non-zero exactly when
// the Boolean product is true — the standard embedding the paper uses in
// §3.1). Inputs must be 0/1 matrices.
func MulBoolWith(net *clique.Network, e Engine, sc *Scratch, s, t *RowMat[int64]) (*RowMat[int64], error) {
	return dropRoute(PlanFor(net.N(), e).MulBoolRouted(net, sc, s, t))
}

// mulBoolDense executes resolved dense engine e on a Boolean product (no
// census): the bit-packed Boolean semiring on the semiring engines, and on
// the bilinear engine, which needs a ring, the integer embedding with the
// walk counts collapsed entrywise to 0/1.
func mulBoolDense(net *clique.Network, p *Plan, sc *Scratch, e Engine, s, t *RowMat[int64]) (*RowMat[int64], error) {
	if e != EngineFast {
		return mulDense[int64](net, p, sc, e, ring.Bool{}, ring.PackedBit{}, s, t)
	}
	r := ring.Int64{}
	prod, err := mulDense[int64](net, p, sc, e, r, r, s, t)
	if err != nil {
		return nil, err
	}
	for v := range prod.Rows {
		row := prod.Rows[v]
		for j := range row {
			if row[j] != 0 {
				row[j] = 1
			}
		}
	}
	return prod, nil
}
