package ccmm

import (
	"fmt"
	"sync"

	"github.com/algebraic-clique/algclique/internal/bilinear"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// Plan is the per-clique-size resolution of an Engine request: the concrete
// engine for ring and semiring algebras plus the bilinear scheme when the
// fast engine applies. Plans are immutable and memoised, so a session (or a
// pipeline of iterated products) resolves engine and scheme once instead of
// on every multiplication.
//
// Auto plans are additionally density-aware: each product opens with a
// one-round census of the operands' nonzero counts and routes through the
// sparse tile engine (EngineSparse) when the paper's ρ-bound predicts
// fewer rounds than the resolved dense engine — with a transparent
// fallback to the dense engine when the sparse engine's exact Σ ca·rb
// bound fails mid-call. The threshold scaling that comparison is not part
// of the plan: it lives on the network (see sparseThreshold in census.go).
type Plan struct {
	// N is the clique size the plan was resolved for.
	N int
	// Requested is the engine selection the plan resolves.
	Requested Engine
	// RingEngine is the concrete engine used for ring products.
	RingEngine Engine
	// SemiringEngine is the concrete engine used for semiring (min-plus,
	// Boolean) products.
	SemiringEngine Engine
	// Scheme is the bilinear scheme backing RingEngine == EngineFast; nil
	// when no scheme fits (forcing EngineFast then fails at multiply time,
	// exactly as the unplanned path does).
	Scheme *bilinear.Scheme
}

type planKey struct {
	n int
	e Engine
}

var planCache sync.Map // planKey → *Plan

// PlanFor resolves (and memoises) the plan for an n-node clique under the
// given engine selection.
func PlanFor(n int, e Engine) *Plan {
	key := planKey{n, e}
	if v, ok := planCache.Load(key); ok {
		return v.(*Plan)
	}
	p := &Plan{
		N:              n,
		Requested:      e,
		RingEngine:     e.Resolve(n, true),
		SemiringEngine: e.Resolve(n, false),
	}
	if p.RingEngine == EngineFast {
		if s, err := bilinear.Pick(n); err == nil {
			p.Scheme = s
		}
	}
	v, _ := planCache.LoadOrStore(key, p)
	return v.(*Plan)
}

// String implements fmt.Stringer.
func (p *Plan) String() string {
	return fmt.Sprintf("plan(n=%d ring=%v semiring=%v)", p.N, p.RingEngine, p.SemiringEngine)
}

// algebra describes a product's algebra to the router (route, census.go):
// everything in which the integer ring, the Boolean semiring, min-plus, and
// a caller's own ring (MulRingRouted) differ is a field here, so a typed
// entry point only picks one. T is the type the operands carry, which for
// Boolean products is not the type they are multiplied in.
type algebra[T any] struct {
	// sr supplies zero and one: the RowMat census counts the entries
	// different from zero, and densifying a CSR operand fills with zero and
	// writes one for the entries of a value-free (nil Val) operand.
	sr ring.Semiring[T]
	// semiring selects the plan's SemiringEngine as the dense engine; the
	// RingEngine otherwise.
	semiring bool
	// entryWords is the per-entry width in words of the dense transport on
	// engine e, fed to predictDenseRounds (fractional for packing codecs).
	entryWords func(e Engine, n int) float64
	// tupleWords is the wire width of one tuple of the sparse engine.
	tupleWords int
	// valueFree reads a CSR operand by its structure alone: every stored
	// entry is the one, whatever its value (the Boolean algebra).
	valueFree bool
	// sparse and sparseCSR run the forced sparse tile engine on either
	// operand form; dense runs the resolved dense engine e. None of them
	// censuses or routes.
	sparse    func(net *clique.Network, sc *Scratch, s, t *RowMat[T]) (*RowMat[T], error)
	sparseCSR func(net *clique.Network, sc *Scratch, s, t *matrix.CSR[T]) (*matrix.CSR[T], error)
	dense     func(net *clique.Network, p *Plan, sc *Scratch, e Engine, s, t *RowMat[T]) (*RowMat[T], error)
}

// semiringAlgebra describes a product multiplied in the type it is carried
// in, shipped through codec; semiring is false for rings.
func semiringAlgebra[T any](sr ring.Semiring[T], codec ring.Codec[T], semiring bool) algebra[T] {
	bc := ring.AsBulk[T](codec)
	return algebra[T]{
		sr:       sr,
		semiring: semiring,
		entryWords: func(_ Engine, n int) float64 {
			return float64(bc.EncodedLen(n)) / float64(n)
		},
		tupleWords: ring.TupleCodec[T]{Val: bc}.EncodedLen(1),
		sparse: func(net *clique.Network, sc *Scratch, s, t *RowMat[T]) (*RowMat[T], error) {
			return SparseMul[T](net, sc, sr, codec, s, t)
		},
		sparseCSR: func(net *clique.Network, sc *Scratch, s, t *matrix.CSR[T]) (*matrix.CSR[T], error) {
			return SparseMulCSR[T](net, sc, sr, codec, s, t)
		},
		dense: func(net *clique.Network, p *Plan, sc *Scratch, e Engine, s, t *RowMat[T]) (*RowMat[T], error) {
			return mulDense[T](net, p, sc, e, sr, codec, s, t)
		},
	}
}

// The three int64-carried algebras of the typed entry points.
var (
	intAlgebra = semiringAlgebra[int64](ring.Int64{}, ring.Int64{}, false)
	// Min-plus is not a ring, so the bilinear engine does not apply.
	minPlusAlgebra = semiringAlgebra[int64](ring.MinPlus{}, ring.MinPlus{}, true)
	// boolAlgebra carries 0/1 integers and multiplies in the Boolean
	// semiring. Dense Boolean products either ride the integer embedding
	// on the bilinear engine (one word per entry) or the bit-packed
	// transport on the semiring engines — the prediction follows whichever
	// the plan resolved; the sparse path's tuples carry bit-packed values
	// either way.
	boolAlgebra = algebra[int64]{
		sr: ring.Int64{},
		entryWords: func(e Engine, n int) float64 {
			if e == EngineFast {
				return 1
			}
			return float64(ring.PackedBool{}.EncodedLen(n)) / float64(n)
		},
		tupleWords: ring.TupleCodec[bool]{Val: ring.PackedBool{}}.EncodedLen(1),
		valueFree:  true,
		sparse:     mulBoolSparse,
		sparseCSR:  mulBoolSparseCSR,
		dense:      mulBoolDense,
	}
)

// mulDense executes resolved dense engine e — no census, no routing. Only
// a ring can ride the bilinear engine.
func mulDense[T any](net *clique.Network, p *Plan, sc *Scratch, e Engine, sr ring.Semiring[T], codec ring.Codec[T], s, t *RowMat[T]) (*RowMat[T], error) {
	switch e {
	case EngineFast:
		if rg, ok := sr.(ring.Ring[T]); ok {
			return FastBilinear[T](net, sc, rg, codec, p.Scheme, s, t)
		}
	case Engine3D:
		return Semiring3D[T](net, sc, sr, codec, s, t)
	case EngineNaive:
		return NaiveGather[T](net, sc, sr, codec, s, t)
	}
	return nil, fmt.Errorf("ccmm: engine %v cannot multiply over %T: %w", e, sr, ErrSize)
}

// countRowNNZ fills counts[v] with the number of entries of m.Rows[v] not
// equal to the semiring zero, parallelised over the worker pool.
func countRowNNZ[T any](net *clique.Network, sr ring.Semiring[T], zero T, m *RowMat[T], counts []int) {
	net.ForEach(func(v int) {
		var k int
		for _, x := range m.Rows[v] {
			if !sr.Equal(x, zero) {
				k++
			}
		}
		counts[v] = k
	})
}

// mulRowMat is the RowMat operand form of the routed product: the census
// scans each row for entries different from the algebra's zero.
func mulRowMat[T any](net *clique.Network, p *Plan, sc *Scratch, a *algebra[T], s, t *RowMat[T]) (*RowMat[T], Route, error) {
	return route(net, p, sc, a, operands[*RowMat[T]]{
		validate: func(n int) error { return validatePair(n, s, t) },
		count: func(ca, rb []int) {
			zero := a.sr.Zero()
			countRowNNZ(net, a.sr, zero, s, ca)
			countRowNNZ(net, a.sr, zero, t, rb)
		},
		sparse: func(sc *Scratch) (*RowMat[T], error) { return a.sparse(net, sc, s, t) },
		dense: func(sc *Scratch, e Engine) (*RowMat[T], error) {
			return a.dense(net, p, sc, e, s, t)
		},
	})
}

// mulCSR is the CSR operand form of the routed product. Its census scans
// nothing — a CSR row's nonzero count is a RowPtr difference, so the round
// costs exactly its broadcast, the "census is free" property the CSR plane
// is built around. Sparse products stay CSR; a product the router sends to
// a dense engine densifies its operands through the pool and comes back as
// the dense row matrix that engine produced — up to csrDensifyCap. A
// value-free algebra densifies its operands value-free, as its sparse
// engine reads them.
func mulCSR[T any](net *clique.Network, p *Plan, sc *Scratch, a *algebra[T], s, t *matrix.CSR[T]) (CSRProduct[T], Route, error) {
	return route(net, p, sc, a, operands[CSRProduct[T]]{
		validate: func(n int) error {
			if err := csrCheck(s, n); err != nil {
				return err
			}
			return csrCheck(t, n)
		},
		count: func(ca, rb []int) {
			net.ForEach(func(v int) {
				ca[v] = s.RowNNZ(v)
				rb[v] = t.RowNNZ(v)
			})
		},
		sparse: func(sc *Scratch) (CSRProduct[T], error) {
			m, err := a.sparseCSR(net, sc, s, t)
			return CSRProduct[T]{Sparse: m}, err
		},
		dense: func(sc *Scratch, e Engine) (CSRProduct[T], error) {
			ds, dt := s, t
			if a.valueFree {
				ds = &matrix.CSR[T]{N: s.N, RowPtr: s.RowPtr, Col: s.Col}
				dt = &matrix.CSR[T]{N: t.N, RowPtr: t.RowPtr, Col: t.Col}
			}
			sd, td, release := densifyPair(net, sc, a.sr.Zero(), a.sr.One(), ds, dt)
			defer release()
			m, err := a.dense(net, p, sc, e, sd, td)
			return CSRProduct[T]{Dense: m}, err
		},
		densifyCap: csrDensifyCap,
	})
}

// MulRingRouted multiplies two distributed matrices over a caller's ring
// with an already-resolved plan on the working set sc: the engines draw
// their message matrices, payload buffers, block operands, and result from
// it, so whatever multiplies on one network pays the working set once. A
// nil sc is the network's own (ScratchOf). The Route reports how the
// density-aware planner executed the product.
func MulRingRouted[T any](net *clique.Network, p *Plan, sc *Scratch, rg ring.Ring[T], codec ring.Codec[T], s, t *RowMat[T]) (*RowMat[T], Route, error) {
	a := semiringAlgebra[T](rg, codec, false)
	return mulRowMat(net, p, sc, &a, s, t)
}

// MulIntRouted multiplies distributed int64 matrices over the integer ring.
func (p *Plan) MulIntRouted(net *clique.Network, sc *Scratch, s, t *RowMat[int64]) (*RowMat[int64], Route, error) {
	return mulRowMat(net, p, sc, &intAlgebra, s, t)
}

// MulBoolRouted computes the Boolean product of 0/1 matrices (see
// MulBoolWith for the embedding). The sparse path multiplies over the
// Boolean semiring with bit-packed tuple values (ring.TupleCodec over
// ring.PackedBool).
func (p *Plan) MulBoolRouted(net *clique.Network, sc *Scratch, s, t *RowMat[int64]) (*RowMat[int64], Route, error) {
	return mulRowMat(net, p, sc, &boolAlgebra, s, t)
}

// MulMinPlusRouted computes the distance product; a min-plus entry is
// nonzero when it is finite.
func (p *Plan) MulMinPlusRouted(net *clique.Network, sc *Scratch, s, t *RowMat[int64]) (*RowMat[int64], Route, error) {
	return mulRowMat(net, p, sc, &minPlusAlgebra, s, t)
}

// MulIntCSRRouted multiplies CSR operands over the integer ring.
func (p *Plan) MulIntCSRRouted(net *clique.Network, sc *Scratch, s, t *matrix.CSR[int64]) (CSRProduct[int64], Route, error) {
	return mulCSR(net, p, sc, &intAlgebra, s, t)
}

// MulBoolCSRRouted computes the Boolean product of CSR operands. Stored
// entries are true whatever their value, on either route — a nil Val is
// the usual adjacency encoding — so the Boolean view shares the structure
// arrays with no conversion pass, a dense route densifies value-free, and
// the sparse tuple streams carry bit-packed values. Sparse results come
// back value-free (nil Val: every stored entry is 1).
func (p *Plan) MulBoolCSRRouted(net *clique.Network, sc *Scratch, s, t *matrix.CSR[int64]) (CSRProduct[int64], Route, error) {
	return mulCSR(net, p, sc, &boolAlgebra, s, t)
}

// MulMinPlusCSRRouted computes the distance product of CSR operands:
// unstored entries are the min-plus zero (+∞), so a CSR distance matrix
// stores exactly the finite entries, and a nil Val means every stored edge
// has weight 0 (the min-plus one).
func (p *Plan) MulMinPlusCSRRouted(net *clique.Network, sc *Scratch, s, t *matrix.CSR[int64]) (CSRProduct[int64], Route, error) {
	return mulCSR(net, p, sc, &minPlusAlgebra, s, t)
}
