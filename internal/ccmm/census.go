package ccmm

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/routing"
)

// This file is the density-aware half of the planner: a one-round census
// of the operands' per-row nonzero counts, a pair of round predictors (the
// paper's ρ-bound for the sparse engine against calibrated estimates for
// the resolved dense engine), and the adaptive dispatch that routes a
// product through EngineSparse exactly when the prediction says it wins —
// with a transparent fallback to the dense plan when the engine's own
// Σ ca·rb census rejects the operands mid-call.

// DefaultSparseThreshold is the default scale factor of the sparse/dense
// round comparison: Auto routes a product through the sparse engine when
// predictedSparseRounds ≤ threshold · predictedDenseRounds. 1 compares the
// predictions as-is; values below 1 demand a larger predicted win before
// going sparse; 0 disables the census (and the sparse engine) entirely.
const DefaultSparseThreshold = 1.0

// Route reports how the density-aware planner executed one product.
type Route struct {
	// Engine is the engine that produced the product.
	Engine Engine
	// Census reports whether the one-round density census ran.
	Census bool
	// RhoA and RhoB are the operands' total nonzero counts from the
	// census (meaningful only when Census is true).
	RhoA, RhoB int64
	// Fallback reports that the planner chose the sparse engine but its
	// Σ ca·rb bound failed mid-call, so the dense engine ran instead.
	Fallback bool
	// PredictedRounds and PredictedWords are the planner's estimates for
	// Engine on this product (predictDenseRounds and predictDenseWords for
	// a dense engine, predictSparseRounds for the sparse one, which has no
	// words estimate); zero when nothing was predicted — a sparse product
	// run without a census.
	PredictedRounds, PredictedWords float64
}

// Decision renders the route as the session ledger's sparse/dense tag:
// "sparse", "dense", or "dense-fallback"; empty when no census ran.
func (r Route) Decision() string {
	switch {
	case !r.Census:
		return ""
	case r.Engine == EngineSparse:
		return "sparse"
	case r.Fallback:
		return "dense-fallback"
	default:
		return "dense"
	}
}

// sparseThreshold is the effective threshold of a product on net. The
// network is its one home: a session arms its WithSparseThreshold setting
// there per operation, so even products resolved deep inside graph
// algorithms honour it; a network nobody armed means
// DefaultSparseThreshold.
func sparseThreshold(net *clique.Network) float64 {
	if t, ok := net.SparseThreshold(); ok {
		return t
	}
	return DefaultSparseThreshold
}

// censusApplies reports whether the plan runs the density census on its
// products on net: only Auto plans (a forced engine is a forced engine),
// only on cliques the sparse engine covers, and only with a positive
// threshold — zero, negative, and NaN all turn the census off.
func (p *Plan) censusApplies(net *clique.Network) bool {
	return p.Requested == EngineAuto && p.N >= minSparseN && sparseThreshold(net) > 0
}

// census is the planner's census round: count fills in every node's two
// per-row nonzero counts, every node broadcasts them packed into one word,
// and every node returns the same operand totals (ρ_A, ρ_B). This mirrors
// the degree broadcast that opens the Theorem 4 machinery (the
// sparsesq/degrees phase), lifted to arbitrary operands.
//
// A sparse-routed product censuses twice by design: this round sees only
// row counts (all that exists before any communication — it is what the
// routing decision is made from), while the engine's own census
// (mmsparse/census) broadcasts the column×row weights ca·rb, and ca(y)
// only exists at y after the engine's transpose. The two cannot merge —
// the decision must precede the transpose, and a broadcast costs one
// round whether it carries one packed word or two — so the sparse path's
// fixed overhead includes both, which the ρ-bound predictor's constant
// accounts for.
func census(net *clique.Network, sc *Scratch, count func(ca, rb []int)) (rhoA, rhoB int64) {
	n := net.N()
	net.Phase("mmplan/census")
	sp := sc.sparse()
	sp.ca = growInts(sp.ca, n)
	sp.rb = growInts(sp.rb, n)
	count(sp.ca, sp.rb)
	sp.nnz = growInts(sp.nnz, n)
	for v := 0; v < n; v++ {
		sp.nnz[v] = clique.Word(sp.ca[v])<<32 | clique.Word(sp.rb[v])
	}
	got := net.BroadcastWord(sp.nnz)
	for v := 0; v < n; v++ {
		rhoA += int64(got[v] >> 32)
		rhoB += int64(got[v] & 0xffffffff)
	}
	return rhoA, rhoB
}

// sparseOverheadRounds is the fixed-phase cost the ρ-bound estimate adds:
// transpose, census, and the minimum flush cost of the spread, forward,
// and gather exchanges.
const sparseOverheadRounds = 10

// sparseLoadFactor scales the ρ-bound's per-word load term to the
// simulator's measured schedules: the tile exchanges pay the load roughly
// once each in the spread, forward, and gather, so the effective
// coefficient sits near 3 (calibrated on GNP inputs at n ∈ {64, 100,
// 256}; deliberately on the high side, so borderline products stay on the
// dense engine).
const sparseLoadFactor = 3

// predictSparseRounds is the paper's ρ-bound as a planning estimate:
// tupleWords · (ρ_A·ρ_B)^{1/3} / n^{2/3}, scaled to the simulator's
// schedules, plus the fixed phases. It is a heuristic for the routing
// decision, never the ledger — the simulator still charges whatever the
// schedules actually cost.
func predictSparseRounds(n int, rhoA, rhoB int64, tupleWords int) float64 {
	load := math.Cbrt(float64(rhoA)*float64(rhoB)) / math.Pow(float64(n), 2.0/3.0)
	return sparseLoadFactor*float64(tupleWords)*load + sparseOverheadRounds
}

// predictDenseRounds prices the resolved dense engine's rounds for an
// n-clique product whose k-entry chunks occupy wd(k) words per entry on
// that engine's wire (1 for one-word entries, fractional for packing
// codecs: EncodedLen(k)/k). Each term is priced at the width of the chunks
// its phases ship:
//
//   - The 3D engine's exchanges are oblivious — every message length
//     follows from n, the layout and the chunk widths — so its price is
//     exact (up to exactPriceMaxN nodes): denseCharge builds each
//     exchange's link list and charges it as the port will.
//   - The bilinear engine moves Θ(n/d²) words per link in its combine and
//     products phases, which ship pieces of q/d entries, plus about 4
//     rounds at one word per entry in its distribute and assemble phases,
//     which ship rows of q entries. The sparse engine's ρ-bound
//     (predictSparseRounds) was calibrated against this estimate, so the
//     census keeps it (see censusPrice); denseEngine compares the
//     bilinear engine's exact charge instead.
//   - The naive gather moves Θ(n) words per link.
//
// Within those, the estimates deliberately stay on the low side for small
// widths so the planner never abandons a cheap packed dense product.
func (p *Plan) predictDenseRounds(e Engine, wd func(k int) float64) float64 {
	n := float64(p.N)
	switch e {
	case EngineFast:
		d, _, row, piece := p.fastShape()
		return 4*wd(piece)*n/(d*d) + 4*wd(row)
	case Engine3D:
		rounds, _ := p.denseCharge(e, wd)
		return rounds
	default: // EngineNaive
		return wd(p.N)*n + 2
	}
}

// predictDenseWords estimates the words the resolved dense engine e
// charges for an n-clique product whose k-entry chunks occupy wd(k) words
// per entry on that engine's wire. The 3D engine's price is exact
// (denseCharge). The bilinear engine charges about 6·n² in q-entry row
// chunks and 3m/d²·n² in q/d-entry piece chunks for a scheme of m products
// on d×d blocks — 11.25·n² in all for Strassen's, 15.2·n² for its square.
// The naive gather ships every row to every other node.
func (p *Plan) predictDenseWords(e Engine, wd func(k int) float64) float64 {
	n := float64(p.N)
	switch e {
	case EngineFast:
		d, m, row, piece := p.fastShape()
		return (6*wd(row) + 3*m/(d*d)*wd(piece)) * n * n
	case Engine3D:
		_, words := p.denseCharge(e, wd)
		return words
	default: // EngineNaive
		return wd(p.N) * n * n * (n - 1)
	}
}

// censusPrice is the dense side of the census's comparison: the resolved
// engine's predicted rounds, except on the 3D engine, which the census
// prices by the closed form predictSparseRounds was calibrated against —
// 7·wd(n)·b²/n, and once a block row exceeds two words at least
// 4 + 3·(c² + b)·row/n — not by its exact charge. The sparse engine has no
// words estimate, so the census cannot weigh words; the exact charge, a
// fifth to a third lower on small cliques, would move quarter-density
// distance products at n = 16 and 24 from the sparse engine to 3D, trading
// 30–45 % of their rounds for 10–30 % more words.
func (p *Plan) censusPrice(e Engine, wd func(k int) float64) float64 {
	if e != Engine3D {
		return p.predictDenseRounds(e, wd)
	}
	lay := newCubeLayout(p.N)
	n, c, b := float64(p.N), float64(lay.c), float64(lay.b)
	rounds := math.Max(3, 7*wd(p.N)*b*b/n)
	if row := wd(lay.b) * b; row > 2 {
		rounds = math.Max(rounds, 4+3*(c*c+b)*row/n)
	}
	return rounds
}

// denseCharge is what the 3D (e = Engine3D) or the bilinear engine is
// charged on the plan's clique at wd(k) words per entry in k-entry chunks:
// the sum over the engine's exchanges of the port's charge of each
// (obliviousCharge), from link lists built as the engine sends — exact up
// to exactPriceMaxN nodes. A bilinear plan without a scheme cannot run,
// and is priced +Inf.
func (p *Plan) denseCharge(e Engine, wd func(k int) float64) (rounds, words float64) {
	chunk := func(k int) int64 { return int64(math.Round(wd(k) * float64(k))) }
	key := denseKey{n: p.N, e: e}
	if e == Engine3D {
		key.row = chunk(newCubeLayout(p.N).b)
	} else {
		if p.Scheme == nil {
			return math.Inf(1), math.Inf(1)
		}
		q := isqrt(p.N)
		key.d, key.m = p.Scheme.D, p.Scheme.M
		key.row, key.piece = chunk(q), chunk(q/p.Scheme.D)
	}
	denseCharges.Lock()
	c, ok := denseCharges.m[key]
	denseCharges.Unlock()
	if !ok {
		c = key.charge()
		denseCharges.Lock()
		if denseCharges.m == nil {
			denseCharges.m = map[denseKey][2]int64{}
		}
		denseCharges.m[key] = c
		denseCharges.Unlock()
	}
	return float64(c[0]), float64(c[1])
}

// denseKey is one oblivious engine's pattern: the clique, the engine, the
// words of its row chunk (a b-entry block row on 3D, a q-entry row on the
// bilinear engine) and, on the bilinear engine, its scheme's d and m and
// the words of its q/d-entry piece chunk.
type denseKey struct {
	n     int
	e     Engine
	d, m  int
	row   int64
	piece int64
}

// denseCharges memoises denseCharge per pattern, so a warm prediction
// allocates nothing.
var denseCharges struct {
	sync.Mutex
	m map[denseKey][2]int64 // → (rounds, words)
}

// exactPriceMaxN is the largest clique whose dense prices are exact. Above
// it an exchange's link list costs more memory than a price is worth (the
// 3D distribute at n = 2000 has 550 000 links), so charge prices each
// exchange at the cheaper of its direct schedule and its two-phase floor
// ⌈out/n⌉ + ⌈in/n⌉ at twice its words, which the König assignment meets.
const exactPriceMaxN = 1024

// charge builds the pattern's exchanges as semiring3D or fastBilinear
// sends them and sums their charges.
func (k denseKey) charge() (c [2]int64) {
	n, exact := k.n, k.n <= exactPriceMaxN
	var links []routing.Link
	var out, in []int64 // per node, above exactPriceMaxN
	var maxLink, total int64
	if !exact {
		out, in = make([]int64, n), make([]int64, n)
	}
	send := func(src, dst int, words int64) {
		switch {
		case exact:
			links = append(links, routing.Link{Src: int32(src), Dst: int32(dst), Words: words})
		case src != dst:
			out[src], in[dst] = out[src]+words, in[dst]+words
			maxLink, total = max(maxLink, words), total+words
		}
	}
	flush := func(cube bool) {
		r, w := maxLink, total
		if exact {
			if cube { // a node feeding the subcube it hosts is free and outside Auto
				links = slices.DeleteFunc(links, func(l routing.Link) bool { return l.Src == l.Dst })
			}
			slices.SortFunc(links, func(a, b routing.Link) int {
				return cmp.Or(cmp.Compare(a.Src, b.Src), cmp.Compare(a.Dst, b.Dst))
			})
			r, w = obliviousCharge(n, links)
			links = links[:0]
		} else {
			nn := int64(n)
			if floor := (slices.Max(out)+nn-1)/nn + (slices.Max(in)+nn-1)/nn; maxLink > 2 && floor < r {
				r, w = floor, 2*total
			}
			clear(out)
			clear(in)
			maxLink, total = 0, 0
		}
		c[0], c[1] = c[0]+r, c[1]+w
	}
	if k.e == Engine3D {
		lay := newCubeLayout(n)
		for v := 0; v < n; v++ {
			v1 := lay.group(v)
			for u1 := range lay.c {
				for u2 := range lay.c {
					var w int64 // an S block row to (v1, ∗, ∗), a T block row to (∗, v1, ∗)
					if u1 == v1 {
						w += k.row
					}
					if u2 == v1 {
						w += k.row
					}
					for u3 := range lay.c {
						if w > 0 {
							send(v, lay.host(u1, u2, u3), w)
						}
					}
				}
			}
		}
		flush(true)
		for r := 0; r < n; r++ {
			if u1, _, _, ok := lay.subcube(r); ok {
				for x := lay.lo(u1); x < lay.lo(u1+1); x++ {
					send(r, x, k.row)
				}
			}
		}
		flush(true)
		return c
	}
	lay, err := newGridLayout(n, k.d)
	if err != nil {
		panic(err) // a scheme's d divides q
	}
	q, qd := lay.q, int64(lay.qd)
	for v := 0; v < n; v++ { // distribute: two row chunks to each (v2, x2)
		_, v2, _ := lay.split(v)
		for x2 := range q {
			send(v, lay.nodeAt(v2, x2), 2*k.row)
		}
	}
	flush(false)
	for v := 0; v < n; v++ { // combine: 2·q/d piece chunks to each site
		for w := range k.m {
			send(v, w, 2*qd*k.piece)
		}
	}
	flush(false)
	for w := range k.m { // products: q/d piece chunks to every node
		for v := 0; v < n; v++ {
			send(w, v, qd*k.piece)
		}
	}
	flush(false)
	for v := 0; v < n; v++ { // assemble: one row chunk to each row owner
		x1, _ := lay.label(v)
		for _, u := range lay.groupSet(x1) {
			send(v, u, k.row)
		}
	}
	flush(false)
	return c
}

// obliviousCharge is the rounds and words the port charges an oblivious
// flush of links (sorted by (Src, Dst), each link once): direct when no
// link carries more than two words, else Auto between direct and the
// two-phase schedule of routing.ObliviousCosts. A self-link is free on the
// direct schedule.
func obliviousCharge(n int, links []routing.Link) (rounds, words int64) {
	var maxWords int64
	for _, l := range links {
		maxWords = max(maxWords, l.Words)
		if l.Src != l.Dst {
			rounds, words = max(rounds, l.Words), words+l.Words
		}
	}
	if maxWords > 2 {
		if c := routing.ObliviousCosts(n, nil, links); c.TwoPhase() {
			return c.MaxA + c.MaxB, c.TotalA + c.TotalB
		}
	}
	return rounds, words
}

// fastShape returns the bilinear engine's block dimension d, its scheme's
// product count m, and the entries of its two chunk kinds: rows of q = √n
// in the distribute and assemble phases, pieces of q/d in the combine and
// products phases. Without a scheme (forcing the engine then fails at
// multiply time) it prices Strassen's d = 2, m = 7.
func (p *Plan) fastShape() (d, m float64, row, piece int) {
	q := isqrt(p.N)
	if p.Scheme == nil {
		return 2, 7, q, max(1, q/2)
	}
	return float64(p.Scheme.D), float64(p.Scheme.M), q, q / p.Scheme.D
}

// denseCost is the planner's price of a product of algebra a on the dense
// engine e: predicted rounds and words.
func denseCost[T any](p *Plan, a *algebra[T], e Engine) (rounds, words float64) {
	wd := func(k int) float64 { return a.entryWords(e, k) }
	return p.predictDenseRounds(e, wd), p.predictDenseWords(e, wd)
}

// denseEngine picks the dense engine of a product of algebra a whose plan
// resolved e. A forced engine runs as forced. An Auto plan keeps e, except
// that the 3D engine replaces the bilinear one wherever it applies and
// charges fewer rounds and no more words — both engines' exchanges are
// oblivious, so denseCharge prices both exactly. A Boolean product takes
// that trade at every scheme size — bit-packed block rows against the
// bilinear engine's one-word integer embedding — while a full-width
// integer one keeps the bilinear engine: where 3D would save rounds it
// costs words. An integer product shipped as narrow residues
// (ring.PackedInt) may take it: at n = 144 one of 8 bits does, one of 15
// does not; at n = 64 both do.
func denseEngine[T any](p *Plan, a *algebra[T], e Engine) Engine {
	if p.Requested != EngineAuto || e != EngineFast || p.SemiringEngine != Engine3D {
		return e
	}
	r3, w3 := p.denseCharge(Engine3D, func(k int) float64 { return a.entryWords(Engine3D, k) })
	rf, wf := p.denseCharge(EngineFast, func(k int) float64 { return a.entryWords(EngineFast, k) })
	if r3 < rf && w3 <= wf {
		return Engine3D
	}
	return e
}

// chooseSparse is the planner's routing decision. Beyond the round
// comparison it pre-filters operands whose estimated tile weight
// Σ ca·rb ≈ ρ_A·ρ_B/n (exact for uniform columns) has no realistic chance
// of passing the engine's 2n² bound, so obviously-dense products do not
// pay the doomed transpose; skewed operands that sneak past the estimate
// still fall back transparently when the engine's exact census rejects
// them.
func chooseSparse(n int, rhoA, rhoB int64, tupleWords int, densePred, threshold float64) bool {
	if rhoA == 0 || rhoB == 0 {
		return true // an all-zero operand: the sparse engine ships nothing
	}
	// Prefilter with slack 4: the uniform-column estimate can undershoot
	// the exact Σ ca·rb on skewed inputs, and a wasted sparse attempt
	// costs only the transpose and census before falling back.
	if float64(rhoA)*float64(rhoB)/float64(n) >= 4*2*float64(n)*float64(n) {
		return false
	}
	return predictSparseRounds(n, rhoA, rhoB, tupleWords) <= threshold*densePred
}

// operands is what the router needs from an operand form, RowMat or CSR
// (mulRowMat and mulCSR in plan.go build the two): P is the product type,
// and every function closes over the operand pair.
type operands[P any] struct {
	// validate checks the pair against the clique size.
	validate func(n int) error
	// count fills in each node's per-row nonzero counts — the local half
	// of the census.
	count func(ca, rb []int)
	// sparse runs the sparse tile engine, dense the resolved dense engine
	// e, each on the original operands.
	sparse func(sc *Scratch) (P, error)
	dense  func(sc *Scratch, e Engine) (P, error)
	// densifyCap, when positive, is the largest clique on which dense may
	// run at all (see csrDensifyCap); above it an Auto plan runs sparse
	// without a census.
	densifyCap int
}

// route is the routed product — the one body behind every Mul*Routed entry
// point: plan and operand checks, the sparse short-cut (forced, or above
// the densify cap), the census on the operands the sparse engine would
// see, the sparse-vs-dense decision from the predictors — priced against
// the plan's resolved engine — the sparse run with transparent fallback on
// ErrTooDense, and otherwise the dense engine denseEngine picks. The Route
// reports what happened, and the engine that produced the product is noted
// in the network's product ledger with its prediction and its charge (the
// census round and a refuted sparse attempt stay in their phases only).
func route[T, P any](net *clique.Network, p *Plan, sc *Scratch, a *algebra[T], ops operands[P]) (out P, rt Route, err error) {
	defer catchAbort(&err)
	var none P
	n := net.N()
	if p.N != n {
		return none, Route{}, fmt.Errorf("ccmm: plan for n=%d used on an %d-node clique: %w", p.N, n, ErrSize)
	}
	if err := ops.validate(n); err != nil {
		return none, Route{}, err
	}
	sc = sc.orOf(net)
	// A forced sparse plan runs the engine as it stands. So does a routed
	// product above the densify cap: no dense engine may run there, so there
	// is nothing to decide — no census, no prediction — and the engine's
	// exact Σ ca·rb bound is the only refusal.
	if p.Requested == EngineSparse || ops.densifyCap > 0 && n > ops.densifyCap && p.censusApplies(net) {
		rt.Engine = EngineSparse
		r0, w0 := net.Rounds(), net.Words()
		if out, err = ops.sparse(sc); err == nil {
			noteProduct(net, rt, r0, w0)
		}
		return out, rt, err
	}
	rt.Engine = p.RingEngine
	if a.semiring {
		rt.Engine = p.SemiringEngine
	}
	if p.censusApplies(net) {
		rt.Census = true
		rt.RhoA, rt.RhoB = census(net, sc, ops.count)
		densePred := p.censusPrice(rt.Engine, func(k int) float64 { return a.entryWords(rt.Engine, k) })
		if chooseSparse(n, rt.RhoA, rt.RhoB, a.tupleWords, densePred, sparseThreshold(net)) {
			r0, w0 := net.Rounds(), net.Words()
			out, err = ops.sparse(sc)
			if err == nil {
				rt.Engine = EngineSparse
				rt.PredictedRounds = predictSparseRounds(n, rt.RhoA, rt.RhoB, a.tupleWords)
				noteProduct(net, rt, r0, w0)
				return out, rt, nil
			}
			if !errors.Is(err, ErrTooDense) {
				return none, rt, err
			}
			rt.Fallback = true // the exact Σ ca·rb census rejected the operands
		}
	}
	if ops.densifyCap > 0 && n > ops.densifyCap {
		return none, rt, fmt.Errorf("ccmm: dense fallback at n = %d would allocate n² state (densify cap %d): %w", n, ops.densifyCap, ErrTooDense)
	}
	rt.Engine = denseEngine(p, a, rt.Engine)
	rt.PredictedRounds, rt.PredictedWords = denseCost(p, a, rt.Engine)
	r0, w0 := net.Rounds(), net.Words()
	if out, err = ops.dense(sc, rt.Engine); err == nil {
		noteProduct(net, rt, r0, w0)
	}
	return out, rt, err
}

// noteProduct enters a product that ran on rt.Engine, charged from the
// network's rounds r0 and words w0 on, in the network's product ledger.
func noteProduct(net *clique.Network, rt Route, r0, w0 int64) {
	net.NoteProduct(rt.Engine.String(), rt.Decision(), rt.PredictedRounds, rt.PredictedWords, net.Rounds()-r0, net.Words()-w0)
}
