// Package algclique is a simulation library for the algebraic
// congested-clique algorithms of Censor-Hillel, Kaski, Korhonen, Lenzen,
// Paz and Suomela, "Algebraic Methods in the Congested Clique" (PODC 2015).
//
// The congested clique is a synchronous message-passing model: n nodes on a
// complete network, one O(log n)-bit message per ordered pair per round.
// This package runs the paper's algorithms on an exact simulator that
// charges rounds precisely, and exposes:
//
//   - distributed matrix multiplication over semirings (O(n^{1/3}) rounds)
//     and rings (O(n^{1-2/σ}) rounds via bilinear schemes — Theorem 1),
//   - triangle and 4-cycle counting, k-cycle detection by colour-coding,
//     and constant-round 4-cycle detection (Corollary 2, Theorems 3–4),
//   - girth computation (Theorem 5 / Corollary 16),
//   - exact, small-weight, and (1+ε)-approximate all-pairs shortest paths
//     with routing tables (Corollaries 6–8, Theorem 9, §3.4 witnesses),
//   - the combinatorial baselines of Table 1.
//
// The entry point is the session: NewClique builds a reusable simulated
// clique whose engine plan, networks, and buffers persist across
// operations, and every algorithm is a method on it — one entry point per
// operation (see Clique and DESIGN.md). A single measurement is NewClique,
// one method call, and Close.
//
// Every operation returns a Stats value with the measured round count and a
// per-phase breakdown — the paper's "evaluation" reproduced as
// measurements. Semiring (3D) products run on any clique size via a padded
// cube layout, so min-plus entry points never pad; the bilinear engine
// still needs perfect-square clique sizes, and those entry points
// transparently pad the instance with isolated nodes.
package algclique

import (
	"context"

	"github.com/algebraic-clique/algclique/internal/bilinear"
	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// Inf is the distance value meaning "unreachable" and the min-plus
// semiring's additive identity.
const Inf int64 = ring.Inf

// NoHop marks a missing routing-table entry (unreachable pair).
const NoHop int64 = ring.NoWitness

// IsInf reports whether a distance value means "unreachable".
func IsInf(d int64) bool { return ring.IsInf(d) }

// Mat is a square dense matrix in row-major [][]int64 form, the input and
// output type of the matrix entry points.
type Mat = [][]int64

// Engine selects the distributed multiplication algorithm behind the
// algebraic entry points.
type Engine int

const (
	// Auto picks the fastest engine the (padded) clique size supports,
	// and routes individual products through the sparse tile engine when
	// a one-round density census predicts it beats the dense plan (see
	// WithSparseThreshold and Stats.Routing).
	Auto Engine = iota
	// Fast is the bilinear-scheme algorithm of §2.2 (Strassen-backed).
	Fast
	// Semiring3D is the 3D algorithm of §2.1.
	Semiring3D
	// Naive is the learn-everything baseline.
	Naive
	// Sparse is the density-aware sparse tile engine (the §1.2 remark
	// generalised): O((ρ_A·ρ_B)^{1/3}/n^{2/3} + 1) rounds on operands
	// with Σ ca(y)·rb(y) < 2n², where ρ counts operand nonzeros. Forcing
	// it rejects denser operands with an error wrapping ErrSparseTooDense
	// and needs n ≥ 8; under Auto the same engine is chosen per product,
	// with a transparent dense fallback instead of the error.
	Sparse
)

// String implements fmt.Stringer.
func (e Engine) String() string { return e.internal().String() }

func (e Engine) internal() ccmm.Engine {
	switch e {
	case Fast:
		return ccmm.EngineFast
	case Semiring3D:
		return ccmm.Engine3D
	case Naive:
		return ccmm.EngineNaive
	case Sparse:
		return ccmm.EngineSparse
	default:
		return ccmm.EngineAuto
	}
}

// PhaseStat is the cost of one named algorithm phase, graded against its
// information bound: Flushes counts the phase's exchanges (every flush and
// collective; a two-phase schedule's two legs are one), and Bound sums
// each exchange's ⌈max(out, in)/(n−1)⌉, out and in the most words any node
// sends and receives in it. No schedule beats the bound, so
// Bound ≤ Rounds; the gap is what the phase's schedule leaves on the table.
type PhaseStat struct {
	Name    string
	Rounds  int64
	Words   int64
	Flushes int64
	Bound   int64
}

// ProductStat is one row of an operation's product ledger: its routed
// matrix products that ran the same engine under the same routing
// decision, with the planner's predicted cost beside the charged one, each
// summed over the row.
type ProductStat struct {
	// Engine names the engine that produced the products ("semiring-3d",
	// "fast-bilinear", "naive-gather" or "sparse").
	Engine string
	// Decision is the routing decision, as in Stats.Routing: "sparse",
	// "dense", "dense-fallback", or empty when no census ran.
	Decision string
	// Count is how many products the row holds.
	Count int64
	// PredictedRounds and PredictedWords are the planner's estimates for
	// the engine, summed; the sparse engine predicts rounds only, and a
	// product run without a census predicts nothing on it.
	PredictedRounds, PredictedWords float64
	// Rounds and Words are what the products were charged, from the
	// engine's first phase to its last: the census round that routed them,
	// and a sparse attempt its exact bound refuted, stay in Phases only.
	Rounds, Words int64
}

// Stats reports the measured communication cost of one simulated run.
type Stats struct {
	// N is the clique size the algorithm ran on (after any padding).
	N int
	// PaddedFrom is the original instance size when padding was applied,
	// and 0 otherwise.
	PaddedFrom int
	// Rounds is the total number of synchronous communication rounds.
	Rounds int64
	// Words is the total number of words carried by links.
	Words int64
	// Faults ledgers every fault injected into the operation
	// (WithFaultInjection); zero when no plan was armed.
	Faults FaultStats
	// Attempts is how many times the operation's product ran — 1 for a
	// clean run, more when certification retried it, 0 for operations
	// without a retryable product (graph algorithms).
	Attempts int
	// Certified reports whether the returned result passed certification
	// (WithCertification).
	Certified bool
	// Routing reports how the density-aware planner executed the
	// operation's product when its engine selection is Auto: "sparse"
	// (the census routed it through the sparse tile engine), "dense"
	// (the census chose the resolved dense engine), or "dense-fallback"
	// (sparse was predicted but the engine's exact Σ ca·rb bound failed
	// mid-call, so the dense engine ran). Empty when no census ran — a
	// forced engine, a disabled threshold (WithSparseThreshold(0)), a
	// CSR product above the densification cap (which runs the sparse
	// engine without one), or an operation without a single routed
	// product.
	Routing string
	// Phases breaks the cost down by algorithm phase.
	Phases []PhaseStat
	// Products breaks the operation's routed matrix products down by
	// engine and routing decision, in first-run order; empty when it ran
	// none. Products an algorithm runs on a named engine body outside the
	// router — the distance product of APSP, say — are not in it.
	Products []ProductStat
}

// statsFrom reads the public Stats of the operation that just ran on net,
// for an instance originally of size orig, and the session ledger's own
// copy of its products. It reads the network's ledgers in place, with no
// snapshot in between, so the products cost no allocation beyond their
// one copy.
func statsFrom(net *clique.Network, orig int) (st Stats, products []ProductStat) {
	st = Stats{N: net.N(), Rounds: net.Rounds(), Words: net.Words()}
	if fi := net.FaultInjector(); fi != nil {
		st.Faults = fi.Stats()
	}
	if st.N != orig {
		st.PaddedFrom = orig
	}
	phases := net.Phases()
	st.Phases = make([]PhaseStat, len(phases))
	for i, p := range phases {
		st.Phases[i] = PhaseStat(p)
	}
	st.Products, products = productsFrom(net.Products())
	return st, products
}

// productsFrom converts a network's product ledger twice over one
// allocation: one copy for the operation's caller and one for the session
// ledger, which never alias, so the caller is free to mutate its Stats.
func productsFrom(src []clique.ProductStat) (caller, ledger []ProductStat) {
	k := len(src)
	out := make([]ProductStat, 2*k)
	for i, p := range src {
		out[i] = ProductStat{Engine: p.Engine, Decision: p.Decision, Count: p.Count,
			PredictedRounds: p.PredictedRounds, PredictedWords: p.PredictedWords,
			Rounds: p.Rounds, Words: p.Words}
	}
	copy(out[k:], out[:k])
	return out[:k:k], out[k:]
}

// SessionOption configures a session for its whole lifetime: it selects the
// engine plan, the transport, the sparse threshold and the simulator worker
// pool, which are resolved once at NewClique and shared by every
// subsequent operation.
type SessionOption interface {
	apply(*config)
	sessionOption()
}

// CallOption configures a single operation, passed to a Clique method:
// randomisation seeds, approximation and colour-coding parameters, round
// budgets, cancellation contexts, fault plans and certification.
type CallOption interface {
	apply(*config)
	callOption()
}

type sessionOpt func(*config)

func (o sessionOpt) apply(c *config) { o(c) }
func (o sessionOpt) sessionOption()  {}

type callOpt func(*config)

func (o callOpt) apply(c *config) { o(c) }
func (o callOpt) callOption()     {}

type config struct {
	engine          Engine
	workers         int
	transport       clique.Transport
	sparseThreshold float64
	seed            uint64
	colourings      int
	delta           float64
	roundLimit      int64
	ctx             context.Context
	fault           *clique.FaultPlan
	certifyProbes   int
	certifyRetries  int // -1 = unset (resolved per operation)
}

// WithEngine forces a specific multiplication engine.
func WithEngine(e Engine) SessionOption { return sessionOpt(func(c *config) { c.engine = e }) }

// WithWorkers bounds the simulator's local-computation worker pool: at
// most k tasks of a fan-out run at once, the calling goroutine counted as
// one of them.
func WithWorkers(k int) SessionOption { return sessionOpt(func(c *config) { c.workers = k }) }

// WithSparseThreshold scales the density-aware planner's sparse-vs-dense
// comparison on Auto sessions: a product routes through the sparse tile
// engine when its ρ-bound round estimate is at most t times the resolved
// dense engine's estimate. The default is 1 (route sparse whenever the
// prediction says it wins); values below 1 demand a larger predicted win;
// 0 disables the per-product density census — and with it the sparse
// routing — entirely, restoring the purely static plan. NaN and negative
// values mean 0: census off. The setting is armed on the session's network
// for every operation, so it also governs the products graph algorithms
// (CountTriangles, Girth, APSP, …) resolve internally. Each
// directly-routed operation's decision is reported in Stats.Routing.
func WithSparseThreshold(t float64) SessionOption {
	return sessionOpt(func(c *config) { c.sparseThreshold = t })
}

// WithWireTransport selects the wire transport: every message is encoded
// into O(log n)-bit words, copied through link queues, and decoded at the
// receiver — the reference, in which every charged word really exists. By
// default sessions use the direct transport, which hands algebra-typed
// data end-to-end and charges the identical rounds and words analytically
// (see DESIGN.md "Accounting plane vs data plane"); the same engine bodies
// run either way, so the reported Stats are bit-identical and only the
// wall-clock differs.
func WithWireTransport() SessionOption {
	return sessionOpt(func(c *config) { c.transport = clique.TransportWire })
}

// WithSeed seeds all randomised components (colour-coding, certification
// probes); runs are reproducible for a fixed seed.
func WithSeed(seed uint64) CallOption { return callOpt(func(c *config) { c.seed = seed }) }

// WithColourings caps the number of colour-coding trials for cycle
// detection and girth (default: the paper's ⌈e^k ln n⌉).
func WithColourings(k int) CallOption { return callOpt(func(c *config) { c.colourings = k }) }

// WithDelta sets the per-product rounding parameter of approximate APSP.
func WithDelta(delta float64) CallOption { return callOpt(func(c *config) { c.delta = delta }) }

// WithRoundLimit aborts the simulation once the algorithm has consumed
// more than limit rounds; the entry point then returns a
// *clique.RoundLimitError. Useful for bounding simulation cost and for
// regression-testing round budgets. On a session the limit applies to the
// single operation it is passed to.
func WithRoundLimit(limit int64) CallOption {
	return callOpt(func(c *config) { c.roundLimit = limit })
}

// WithContext attaches a cancellation context to the operation: once ctx is
// cancelled, the simulation aborts at the next synchronous-round boundary
// and the entry point returns an error satisfying
// errors.Is(err, ctx.Err()). A nil ctx is ignored.
func WithContext(ctx context.Context) CallOption {
	return callOpt(func(c *config) { c.ctx = ctx })
}

// sizeClass describes an algorithm's clique-size requirement.
type sizeClass int

const (
	anySize     sizeClass = iota // every engine runs unpadded (semiring products)
	ringSize                     // the bilinear engine wants a scheme-compatible size
	minPlusSize                  // anySize, and the bilinear engine cannot run it at all
	sparseSize                   // the sparse square's Lemma 12 packing wants n ≥ 8
)

// ringPadding returns the clique size to simulate a ring product of an
// instance of size n on. Semiring products never pad: the 3D algorithm's
// cube layout handles arbitrary n. Ring products pad only for the bilinear
// engine, whose two-level grid needs a scheme-compatible perfect square;
// under Auto, where the engine resolution falls back to the 3D (or naive)
// algorithm on any size, padding is a performance choice and the smaller
// of the scheme padding and the cube padding wins (on a perfect cube the
// 3D engine's index groups need no padding).
func (c config) ringPadding(n int) int {
	switch c.engine {
	case Naive, Semiring3D, Sparse:
		// No constraint: the semiring engines run on any size (the sparse
		// engine rejects n < 8 at multiply time instead).
		return n
	case Fast:
		return nextSchemeSize(n)
	}
	return min(nextSchemeSize(n), nextCube(n))
}

func nextCube(n int) int {
	c := ccmm.CbrtCeil(n)
	return c * c * c
}

func nextSchemeSize(n int) int {
	for m := n; ; m++ {
		if _, err := bilinear.Pick(m); err == nil {
			return m
		}
	}
}
