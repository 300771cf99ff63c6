package ccmm

import (
	"fmt"
	"sync"

	"github.com/algebraic-clique/algclique/internal/bilinear"
	"github.com/algebraic-clique/algclique/internal/clique"
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
// bound fails mid-call. SparseThreshold scales that comparison; 0 turns
// the census (and the sparse routing) off. See census.go.
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
	// SparseThreshold scales the density-aware sparse/dense round
	// comparison (see DefaultSparseThreshold); 0 disables the census.
	SparseThreshold float64
}

type planKey struct {
	n  int
	e  Engine
	th float64
}

var planCache sync.Map // planKey → *Plan

// PlanFor resolves (and memoises) the plan for an n-node clique under the
// given engine selection, with the default density-aware threshold.
func PlanFor(n int, e Engine) *Plan {
	return PlanSparse(n, e, DefaultSparseThreshold)
}

// PlanSparse is PlanFor with an explicit sparse-routing threshold:
// products on an Auto plan go through the sparse engine when
// predictedSparseRounds ≤ threshold · predictedDenseRounds. A zero
// threshold disables the density census entirely.
func PlanSparse(n int, e Engine, threshold float64) *Plan {
	key := planKey{n, e, threshold}
	if v, ok := planCache.Load(key); ok {
		return v.(*Plan)
	}
	p := &Plan{
		N:               n,
		Requested:       e,
		RingEngine:      e.Resolve(n, true),
		SemiringEngine:  e.Resolve(n, false),
		SparseThreshold: threshold,
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

func (p *Plan) check(net *clique.Network) error {
	if p.N != net.N() {
		return fmt.Errorf("ccmm: plan for n=%d used on an %d-node clique: %w", p.N, net.N(), ErrSize)
	}
	return nil
}

// MulRingScratch multiplies two distributed matrices over a ring using an
// already-resolved plan and caller-owned scratch pools: the resolved engine
// draws its message matrices, payload buffers, and block operands from sc,
// so a session (or any iterated-product pipeline) pays the engine's working
// set once. A nil sc uses a transient scratch.
func MulRingScratch[T any](net *clique.Network, p *Plan, sc *Scratch, rg ring.Ring[T], codec ring.Codec[T], s, t *RowMat[T]) (*RowMat[T], error) {
	m, _, err := MulRingRouted[T](net, p, sc, rg, codec, s, t)
	return m, err
}

// MulRingRouted is MulRingScratch reporting how the density-aware planner
// routed the product (see Route).
func MulRingRouted[T any](net *clique.Network, p *Plan, sc *Scratch, rg ring.Ring[T], codec ring.Codec[T], s, t *RowMat[T]) (m *RowMat[T], rt Route, err error) {
	defer catchAbort(&err)
	if err := p.check(net); err != nil {
		return nil, Route{}, err
	}
	if p.RingEngine == EngineSparse {
		m, err := SparseMulScratch[T](net, sc, rg, codec, s, t)
		return m, Route{Engine: EngineSparse}, err
	}
	if !p.censusApplies(net) {
		m, err := mulRingConcrete[T](net, p, sc, rg, codec, s, t)
		return m, Route{Engine: p.RingEngine}, err
	}
	n := net.N()
	if err := validatePair(n, s, t); err != nil {
		return nil, Route{}, err
	}
	bc := ring.AsBulk[T](codec)
	wd := float64(bc.EncodedLen(n)) / float64(n)
	return routeProduct[T](net, p, sc, rg, s, t, p.RingEngine,
		p.predictDenseRounds(p.RingEngine, wd), ring.TupleCodec[T]{Val: bc}.EncodedLen(1),
		func(sc *Scratch) (*RowMat[T], error) {
			return SparseMulScratch[T](net, sc, rg, codec, s, t)
		},
		func() (*RowMat[T], error) {
			return mulRingConcrete[T](net, p, sc, rg, codec, s, t)
		})
}

// mulRingConcrete executes the plan's resolved dense ring engine (no
// census, no routing) — the pre-density-aware dispatch.
func mulRingConcrete[T any](net *clique.Network, p *Plan, sc *Scratch, rg ring.Ring[T], codec ring.Codec[T], s, t *RowMat[T]) (*RowMat[T], error) {
	switch p.RingEngine {
	case EngineFast:
		return FastBilinearScratch[T](net, sc, rg, codec, p.Scheme, s, t)
	case Engine3D:
		return Semiring3DScratch[T](net, sc, rg, codec, s, t)
	case EngineNaive:
		return NaiveGatherScratch[T](net, sc, rg, codec, s, t)
	default:
		return nil, fmt.Errorf("ccmm: engine %v cannot multiply over a ring: %w", p.RingEngine, ErrSize)
	}
}

// MulIntScratch multiplies distributed int64 matrices over the integer ring
// with an already-resolved plan and caller-owned scratch pools.
func (p *Plan) MulIntScratch(net *clique.Network, sc *Scratch, s, t *RowMat[int64]) (*RowMat[int64], error) {
	r := ring.Int64{}
	return MulRingScratch[int64](net, p, sc, r, r, s, t)
}

// MulIntRouted is MulIntScratch reporting the density-aware route.
func (p *Plan) MulIntRouted(net *clique.Network, sc *Scratch, s, t *RowMat[int64]) (*RowMat[int64], Route, error) {
	r := ring.Int64{}
	return MulRingRouted[int64](net, p, sc, r, r, s, t)
}

// MulBoolScratch computes the Boolean matrix product with an
// already-resolved plan and caller-owned scratch pools (see MulBoolWith
// for the embedding); the semiring engines ship the product through the
// bit-packed Boolean transport.
func (p *Plan) MulBoolScratch(net *clique.Network, sc *Scratch, s, t *RowMat[int64]) (*RowMat[int64], error) {
	m, _, err := p.MulBoolRouted(net, sc, s, t)
	return m, err
}

// MulBoolRouted is MulBoolScratch reporting the density-aware route. The
// sparse path multiplies over the Boolean semiring with bit-packed tuple
// values (ring.TupleCodec over ring.PackedBool).
func (p *Plan) MulBoolRouted(net *clique.Network, sc *Scratch, s, t *RowMat[int64]) (m *RowMat[int64], rt Route, err error) {
	defer catchAbort(&err)
	if err := p.check(net); err != nil {
		return nil, Route{}, err
	}
	if p.RingEngine == EngineSparse {
		m, err := mulBoolSparse(net, sc, s, t)
		return m, Route{Engine: EngineSparse}, err
	}
	dense := func() (*RowMat[int64], error) { return p.mulBoolDense(net, sc, s, t) }
	if !p.censusApplies(net) {
		m, err := dense()
		return m, Route{Engine: p.RingEngine}, err
	}
	n := net.N()
	if err := validatePair(n, s, t); err != nil {
		return nil, Route{}, err
	}
	// Dense Boolean products either ride the integer embedding on the
	// bilinear engine (one word per entry) or the bit-packed transport on
	// the semiring engines — predict whichever the plan resolved; the
	// sparse path's tuples carry bit-packed values either way.
	wdPacked := float64(ring.PackedBool{}.EncodedLen(n)) / float64(n)
	var densePred float64
	switch p.RingEngine {
	case EngineFast:
		densePred = p.predictDenseRounds(EngineFast, 1)
	case Engine3D:
		densePred = p.predictDenseRounds(Engine3D, wdPacked)
	default:
		densePred = p.predictDenseRounds(EngineNaive, wdPacked)
	}
	return routeProduct[int64](net, p, sc, ring.Int64{}, s, t, p.RingEngine, densePred,
		ring.TupleCodec[bool]{Val: ring.PackedBool{}}.EncodedLen(1),
		func(sc *Scratch) (*RowMat[int64], error) {
			return mulBoolSparse(net, sc, s, t)
		}, dense)
}

// mulBoolDense executes the plan's resolved dense Boolean path (no
// census): the integer embedding on the bilinear engine, the bit-packed
// Boolean semiring otherwise.
func (p *Plan) mulBoolDense(net *clique.Network, sc *Scratch, s, t *RowMat[int64]) (*RowMat[int64], error) {
	switch p.RingEngine {
	case EngineFast:
		r := ring.Int64{}
		prod, err := mulRingConcrete[int64](net, p, sc, r, r, s, t)
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
	case Engine3D:
		return mulBoolSemiring(net, Engine3D, sc, s, t)
	default:
		return mulBoolSemiring(net, EngineNaive, sc, s, t)
	}
}

// MulMinPlusScratch computes the distance product with an already-resolved
// plan and caller-owned scratch pools; the bilinear engine does not apply
// (min-plus is not a ring).
func (p *Plan) MulMinPlusScratch(net *clique.Network, sc *Scratch, s, t *RowMat[int64]) (*RowMat[int64], error) {
	m, _, err := p.MulMinPlusRouted(net, sc, s, t)
	return m, err
}

// MulMinPlusRouted is MulMinPlusScratch reporting the density-aware route;
// a min-plus entry is nonzero when it is finite.
func (p *Plan) MulMinPlusRouted(net *clique.Network, sc *Scratch, s, t *RowMat[int64]) (m *RowMat[int64], rt Route, err error) {
	defer catchAbort(&err)
	if err := p.check(net); err != nil {
		return nil, Route{}, err
	}
	mp := ring.MinPlus{}
	if p.SemiringEngine == EngineSparse {
		m, err := SparseMulScratch[int64](net, sc, mp, mp, s, t)
		return m, Route{Engine: EngineSparse}, err
	}
	dense := func() (*RowMat[int64], error) { return p.mulMinPlusDense(net, sc, s, t) }
	if !p.censusApplies(net) {
		m, err := dense()
		return m, Route{Engine: p.SemiringEngine}, err
	}
	n := net.N()
	if err := validatePair(n, s, t); err != nil {
		return nil, Route{}, err
	}
	bc := ring.AsBulk[int64](mp)
	wd := float64(bc.EncodedLen(n)) / float64(n)
	return routeProduct[int64](net, p, sc, mp, s, t, p.SemiringEngine,
		p.predictDenseRounds(p.SemiringEngine, wd), ring.TupleCodec[int64]{Val: bc}.EncodedLen(1),
		func(sc *Scratch) (*RowMat[int64], error) {
			return SparseMulScratch[int64](net, sc, mp, mp, s, t)
		}, dense)
}

// mulMinPlusDense executes the plan's resolved dense min-plus engine.
func (p *Plan) mulMinPlusDense(net *clique.Network, sc *Scratch, s, t *RowMat[int64]) (*RowMat[int64], error) {
	mp := ring.MinPlus{}
	switch p.SemiringEngine {
	case Engine3D:
		return Semiring3DScratch[int64](net, sc, mp, mp, s, t)
	case EngineNaive:
		return NaiveGatherScratch[int64](net, sc, mp, mp, s, t)
	default:
		return nil, fmt.Errorf("ccmm: engine %v cannot compute a min-plus product: %w", p.SemiringEngine, ErrSize)
	}
}
