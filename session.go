package algclique

import (
	"errors"
	"fmt"
	"sync"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
)

// ErrSessionClosed is returned by operations on a closed session.
var ErrSessionClosed = errors.New("algclique: session is closed")

// Clique is a reusable simulated congested clique for instances of one
// fixed size n: a session. It owns everything that is expensive to set up
// and identical across operations —
//
//   - the simulated network(s), reset and reused instead of rebuilt,
//     including their local-computation worker pools and, on each, the
//     engines' one working set (message buffers, block operands, and the
//     free list of row matrices every product and every reduction on that
//     network draws from),
//   - the resolved engine plan (engine selection, bilinear scheme, and
//     padding decisions are computed once at construction),
//
// and every algorithm in the package is a method on it. Construction
// options (engine, workers, transport, sparse threshold) are fixed for the
// session's lifetime; per-operation options (seed, delta, round limit,
// context) are passed to each call. Methods may be called from multiple goroutines; the
// session serialises them, since a congested clique runs one algorithm at a
// time.
//
// The session keeps a cumulative ledger of every completed operation —
// Stats returns it, ResetStats clears it — so a pipeline's total
// communication cost (with per-operation phase breakdowns) is measured for
// free. Close releases the worker pools.
//
// Under WithCertification an operation either vouches for its result
// (Stats.Certified) or refuses with an error wrapping ErrNotCertifiable
// before it runs; see WithCertification for which do which.
type Clique struct {
	mu  sync.Mutex
	n   int
	cfg config

	nRing int // clique size for ring operations (scheme padding)

	nets   map[int]*clique.Network
	closed bool

	ledger      []OpStats
	totalRounds int64
	totalWords  int64
}

// OpStats is one completed operation in a session's ledger.
type OpStats struct {
	// Op names the operation ("MatMul", "APSP", …).
	Op string
	Stats
}

// SessionStats is a session's cumulative communication ledger.
type SessionStats struct {
	// N is the instance size the session serves.
	N int
	// Rounds and Words total the cost of all operations since the last
	// ResetStats, including aborted ones (their partial cost was charged).
	Rounds int64
	Words  int64
	// Ops lists every operation in order, each with its full Stats
	// including the per-phase breakdown.
	Ops []OpStats
}

// NewClique builds a session simulating congested-clique algorithms on
// instances of size n ≥ 1. Engine resolution, bilinear-scheme selection,
// and padding decisions happen here, once; the session's networks and
// buffers are then reused by every operation.
func NewClique(n int, opts ...SessionOption) (*Clique, error) {
	if n < 1 {
		return nil, fmt.Errorf("algclique: empty instance: %w", ccmm.ErrSize)
	}
	cfg := config{engine: Auto, sparseThreshold: ccmm.DefaultSparseThreshold, certifyRetries: -1}
	for _, o := range opts {
		o.apply(&cfg)
	}
	return &Clique{n: n, cfg: cfg, nRing: cfg.ringPadding(n), nets: make(map[int]*clique.Network)}, nil
}

// N returns the instance size the session serves.
func (s *Clique) N() int { return s.n }

// Engine returns the session's engine selection.
func (s *Clique) Engine() Engine { return s.cfg.engine }

// Close releases the session's simulator resources (worker pools). The
// ledger remains readable; further operations return ErrSessionClosed.
// Close is idempotent.
func (s *Clique) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	for _, net := range s.nets {
		net.Close()
	}
	return nil
}

// Trim releases the session's cached working set — simulator queue and
// mailbox capacity and, with each network, the engines' working set on it:
// message buffers, block operands, and the free list of row matrices —
// while keeping the session fully usable (everything rebuilds lazily on the
// next operation). Long-lived sessions whose workload has shrunk call it so
// one past peak does not pin its footprint forever; the per-operation Reset
// already releases individual buffers above a high-water threshold, Trim is
// the explicit full release.
//
// Trim is safe to call concurrently with in-flight operations — including
// from a pool's eviction goroutine. Operations hold the session mutex for
// their whole run, so Trim simply waits for the current operation to
// finish and releases between operations; it can never pull scratch or
// queue capacity out from under a running product.
func (s *Clique) Trim() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, net := range s.nets {
		net.Trim()
	}
}

// Stats returns a copy of the session's cumulative ledger (deep enough
// that mutating the snapshot, including phase entries, cannot corrupt the
// session).
func (s *Clique) Stats() SessionStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := SessionStats{N: s.n, Rounds: s.totalRounds, Words: s.totalWords}
	out.Ops = make([]OpStats, len(s.ledger))
	for i, op := range s.ledger {
		out.Ops[i] = op
		out.Ops[i].Phases = append([]PhaseStat(nil), op.Phases...)
		out.Ops[i].Products = append([]ProductStat(nil), op.Products...)
	}
	return out
}

// ResetStats clears the cumulative ledger.
func (s *Clique) ResetStats() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ledger = nil
	s.totalRounds, s.totalWords = 0, 0
}

// record appends a completed operation to the ledger (mu held), with the
// ledger's own copy of its products. The phase slice is copied: the same
// Stats value is returned to the operation's caller, who is free to
// mutate it.
func (s *Clique) record(op string, st Stats, products []ProductStat) {
	st.Phases = append([]PhaseStat(nil), st.Phases...)
	st.Products = products
	s.ledger = append(s.ledger, OpStats{Op: op, Stats: st})
	s.totalRounds += st.Rounds
	s.totalWords += st.Words
}

// sizeFor maps an algorithm's size class to the session's padded clique
// size for it. This is also where a min-plus operation meets a forced
// bilinear engine, which cannot run it.
func (s *Clique) sizeFor(class sizeClass) (int, error) {
	switch class {
	case ringSize:
		return s.nRing, nil
	case sparseSize:
		return max(s.n, 8), nil
	case minPlusSize:
		if s.cfg.engine == Fast {
			return 0, fmt.Errorf("algclique: min-plus is not a ring; use Auto, Semiring3D or Naive: %w", ccmm.ErrSize)
		}
	}
	return s.n, nil
}

// networkFor returns the session's persistent network of the given size,
// building it on first use (mu held).
func (s *Clique) networkFor(n int) *clique.Network {
	if net, ok := s.nets[n]; ok {
		return net
	}
	var opts []clique.Option
	if s.cfg.workers > 0 {
		opts = append(opts, clique.WithWorkers(s.cfg.workers))
	}
	net := clique.New(n, opts...)
	s.nets[n] = net
	return net
}

// opRun is the per-operation harness: it holds the session lock, the reset
// network, the merged per-call config, and the buffers borrowed for the
// run. call acquires it; end (deferred) converts abort panics to errors,
// snapshots the operation's Stats, records the ledger entry, returns
// buffers, and releases the lock.
type opRun struct {
	s        *Clique
	op       string
	cfg      config
	net      *clique.Network
	plan     *ccmm.Plan
	sc       *ccmm.Scratch // net's working set
	n        int           // padded clique size for this run
	orig     int           // original instance size
	route    ccmm.Route    // density-aware routing decision, when one ran
	borrowed []*ccmm.RowMat[int64]

	fi        *clique.FaultInjector // armed fault injector, when a plan is set
	attempts  int                   // product attempts (retry loop)
	certified bool                  // result passed certification
}

// acquire locks the session and merges op's per-call config; on error the
// lock is released. An operation without a certificate refuses
// certification here, before anything runs, and MatMulBroadcast refuses a
// fault plan.
func (s *Clique) acquire(op string, orig int, opts []CallOption) (config, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return config{}, ErrSessionClosed
	}
	if orig != s.n {
		s.mu.Unlock()
		return config{}, fmt.Errorf("algclique: instance size %d on a session for n=%d: %w", orig, s.n, ccmm.ErrSize)
	}
	cfg := s.cfg
	for _, o := range opts {
		o.apply(&cfg)
	}
	if cfg.certifyProbes > 0 && !certifies(op) {
		s.mu.Unlock()
		return config{}, fmt.Errorf("algclique: %s under WithCertification: %w", op, ErrNotCertifiable)
	}
	if cfg.fault != nil && op == broadcastOp {
		s.mu.Unlock()
		return config{}, fmt.Errorf("algclique: fault injection cannot reach %s: a broadcast never flushes", op)
	}
	return cfg, nil
}

// newRun builds the per-operation harness and arms its network (mu held):
// a reset, the per-call abort settings, the session's transport (direct by
// default; WithWireTransport overrides), the session's sparse threshold —
// the one place the planner reads it from, so every matrix product the
// operation performs, including ones graph algorithms resolve internally,
// honours WithSparseThreshold — and the fault injector. The injector survives Reset like the round limit, so
// every operation sets it, including to nil: a panic escaping a faulted
// run skips end's disarm, and the next operation must not inherit its
// chaos.
func (s *Clique) newRun(op string, cfg config, orig, n int) *opRun {
	net := s.networkFor(n)
	r := &opRun{s: s, op: op, cfg: cfg, net: net,
		plan: ccmm.PlanFor(n, cfg.engine.internal()),
		sc:   ccmm.ScratchOf(net),
		n:    n, orig: orig}
	net.Reset()
	net.SetRoundLimit(cfg.roundLimit)
	net.SetContext(cfg.ctx)
	net.SetTransport(cfg.transport)
	net.SetSparseThreshold(cfg.sparseThreshold)
	if cfg.fault != nil {
		r.fi = clique.NewFaultInjector(*cfg.fault, ccmm.PayloadCorrupters...)
	}
	net.SetFaultInjector(r.fi)
	return r
}

// call runs one operation through the per-operation harness: it opens the
// run on the clique size op's size class resolves to, runs body on it, and
// closes it with the deferred end, which turns an abort into the error and
// fills in the Stats. The closed/size checks in acquire take precedence
// over the size class's own error.
func call[T any](s *Clique, op string, orig int, class sizeClass, opts []CallOption, body func(r *opRun) (T, error)) (out T, stats Stats, err error) {
	cfg, err := s.acquire(op, orig, opts)
	if err != nil {
		return out, Stats{}, err
	}
	n, err := s.sizeFor(class)
	if err != nil {
		s.mu.Unlock()
		return out, Stats{}, err
	}
	r := s.newRun(op, cfg, orig, n)
	defer r.end(&stats, &err)
	out, err = body(r)
	return
}

// end completes the operation; call defers it with its named stats and
// error results.
func (r *opRun) end(stats *Stats, err *error) {
	s := r.s
	if rec := recover(); rec != nil {
		e, ok := clique.AsAbort(rec)
		if !ok {
			s.mu.Unlock()
			panic(rec)
		}
		*err = e
	}
	*stats = r.settle()
	// Taint backstop for operations without their own retry loop (graph
	// algorithms, attempts == 0): a run that "succeeded" while data faults
	// fired, with nothing vouching for the result, must not return a
	// silently wrong answer. Products police themselves per attempt in
	// runProduct (a retried attempt may be clean while the cumulative
	// ledger is not).
	if *err == nil && r.attempts == 0 && r.fi != nil && dataFaults(r.fi.Stats()) > 0 {
		*err = &clique.FaultError{Kind: clique.FaultDisrupt, Node: -1,
			Round: stats.Rounds, Injected: r.fi.Stats()}
	}
	// The abort settings and the fault injector survive Reset; clear them
	// so the next operation starts clean.
	r.net.SetContext(nil)
	r.net.SetRoundLimit(0)
	r.net.SetFaultInjector(nil)
	s.mu.Unlock()
}

// settle closes the books on the operation: it snapshots the Stats,
// returns the borrowed buffers to the working set's free list, and records
// the ledger entry (mu held).
func (r *opRun) settle() Stats {
	st, products := statsFrom(r.net, r.orig)
	st.Routing = r.route.Decision()
	st.Attempts = r.attempts
	st.Certified = r.certified
	for _, m := range r.borrowed {
		ccmm.PutMat(r.sc, m)
	}
	r.borrowed = r.borrowed[:0]
	r.s.record(r.op, st, products)
	return st
}

// getMat takes an n×n matrix with stale contents off the working set's free
// list, to go back there when the operation ends.
func (r *opRun) getMat() *ccmm.RowMat[int64] {
	m := ccmm.GetMat[int64](r.sc, r.n)
	r.borrowed = append(r.borrowed, m)
	return m
}

// borrow pads rows into a getMat matrix, filling missing entries with the
// spec's zero; a Boolean spec's copy writes every nonzero entry as 1, so
// every engine reads the same truth values.
func (r *opRun) borrow(rows Mat, spec *productSpec) *ccmm.RowMat[int64] {
	m := r.getMat()
	padMatInto(m, rows, spec.zero, spec.boolean)
	return m
}

// recycle hands an engine-produced matrix to the free list when the
// operation ends, after the body has copied out what it returns.
func (r *opRun) recycle(m *ccmm.RowMat[int64]) {
	if m != nil && m.N() == r.n {
		r.borrowed = append(r.borrowed, m)
	}
}

// engine returns the run's requested engine for the application-layer
// algorithms (their inner products resolve through the memoised plan
// cache).
func (r *opRun) engine() ccmm.Engine { return r.cfg.engine.internal() }

// productSpec is one row of the product table: everything the dense and
// CSR entry points of one algebra share — the ledger name of
// the dense form, the clique-size class, the padding zero, the routed plan
// products on either operand form, and the certification check matching
// the algebra (Freivalds for rings, spot-checks for semirings).
type productSpec struct {
	op      string
	class   sizeClass
	zero    int64
	boolean bool // every nonzero operand entry is true
	mul     func(p *ccmm.Plan, net *clique.Network, sc *ccmm.Scratch, a, b *ccmm.RowMat[int64]) (*ccmm.RowMat[int64], ccmm.Route, error)
	mulCSR  func(p *ccmm.Plan, net *clique.Network, sc *ccmm.Scratch, a, b *matrix.CSR[int64]) (ccmm.CSRProduct[int64], ccmm.Route, error)
	certify func(net *clique.Network, a, b, c *ccmm.RowMat[int64], k int, seed uint64) (bool, error)
}

var (
	matMulSpec = productSpec{op: "MatMul", class: ringSize, zero: 0,
		mul: (*ccmm.Plan).MulIntRouted, mulCSR: (*ccmm.Plan).MulIntCSRRouted, certify: ccmm.CertifyIntProduct}
	matMulBoolSpec = productSpec{op: "MatMulBool", class: ringSize, zero: 0, boolean: true,
		mul: (*ccmm.Plan).MulBoolRouted, mulCSR: (*ccmm.Plan).MulBoolCSRRouted, certify: ccmm.CertifyBoolProduct}
	distanceProductSpec = productSpec{op: "DistanceProduct", class: minPlusSize, zero: Inf,
		mul: (*ccmm.Plan).MulMinPlusRouted, mulCSR: (*ccmm.Plan).MulMinPlusCSRRouted, certify: ccmm.CertifyMinPlusProduct}
)

// runProduct executes one product under the fault plane's contract: run,
// certify when armed, and retry — fresh fault draws, fresh probe seed,
// pending traffic dropped, operands re-padded — while the budget lasts.
// It returns the truncated product or a typed error; a completed product
// that data faults touched is only returned when certification vouched
// for it.
func (r *opRun) runProduct(spec *productSpec, a, b Mat) (Mat, error) {
	cfg := r.cfg
	retries := cfg.certifyRetries
	if retries < 0 {
		if cfg.certifyProbes > 0 {
			retries = DefaultCertificationRetries
		} else {
			retries = 0
		}
	}
	for attempt := 0; ; attempt++ {
		r.attempts = attempt + 1
		if attempt > 0 {
			// Clear any half-delivered traffic of the failed attempt; the
			// accounting (cumulative across attempts — retries are not
			// free) and the fault ledger stay.
			r.net.DropPending()
			if r.fi != nil {
				r.fi.Advance()
			}
		}
		var before int64
		if r.fi != nil {
			before = dataFaults(r.fi.Stats())
		}
		// Re-pad per attempt: cheap insurance that every attempt starts
		// from pristine operands whatever the previous one garbled.
		pa, pb := r.borrow(a, spec), r.borrow(b, spec)
		p, err := r.attemptProduct(spec, pa, pb, before)
		if err == nil && cfg.certifyProbes > 0 {
			ok, cerr := spec.certify(r.net, pa, pb, p, cfg.certifyProbes, certSeed(cfg.seed, attempt))
			switch {
			case cerr != nil:
				err = cerr
			case !ok:
				err = &CertificationError{Op: r.op, Attempts: attempt + 1,
					Probes: cfg.certifyProbes, Injected: r.faults()}
			default:
				r.certified = true
			}
		}
		if err == nil && !r.certified && r.fi != nil && dataFaults(r.fi.Stats()) > before {
			// The product completed, but data faults fired during the
			// attempt and nothing vouched for the result.
			err = &clique.FaultError{Kind: clique.FaultDisrupt, Node: -1,
				Round: r.net.Stats().Rounds, Injected: r.fi.Stats()}
		}
		if err == nil {
			prod := truncateRows(p, r.orig)
			r.recycle(p)
			return prod, nil
		}
		r.recycle(p)
		if attempt >= retries || !r.retryable(err, before) {
			return nil, err
		}
	}
}

// attemptProduct runs the spec's product once, converting a raw panic that
// is collateral damage of injected data faults (a decode or kernel
// tripping over garbled bytes) into a typed *FaultError. Injected panics
// (FaultPlan.PanicAtFlush) and genuine bugs propagate raw — the former
// exists precisely to exercise the recovery layers above.
func (r *opRun) attemptProduct(spec *productSpec, pa, pb *ccmm.RowMat[int64], before int64) (p *ccmm.RowMat[int64], err error) {
	defer func() {
		rec := recover()
		if rec == nil {
			return
		}
		if e, ok := clique.AsAbort(rec); ok {
			err = e
			return
		}
		if r.fi != nil && !r.fi.PanicInjected() && dataFaults(r.fi.Stats()) > before {
			err = &clique.FaultError{Kind: clique.FaultDisrupt, Node: -1,
				Round: r.net.Stats().Rounds, Injected: r.fi.Stats()}
			return
		}
		panic(rec)
	}()
	p, r.route, err = spec.mul(r.plan, r.net, r.sc, pa, pb)
	return p, err
}

// retryable decides whether a failed attempt is worth re-running: only
// failures injected faults explain. Round budgets and cancellations are
// global to the operation, a crashed node stays crashed on the same
// network, and an engine error on a fault-free attempt would just
// reproduce.
func (r *opRun) retryable(err error, before int64) bool {
	if r.fi == nil || r.fi.Crashed() {
		return false
	}
	var rl *clique.RoundLimitError
	var cancel *clique.CanceledError
	if errors.As(err, &rl) || errors.As(err, &cancel) {
		return false
	}
	var fe *clique.FaultError
	if errors.As(err, &fe) {
		return fe.Kind != clique.FaultCrash
	}
	var ce *CertificationError
	if errors.As(err, &ce) {
		return true
	}
	// Any other error (transport divergence, a sparse bound failing) is
	// fault-induced only if faults actually fired during the attempt.
	return dataFaults(r.fi.Stats()) > before
}

// faults snapshots the run's fault ledger (zero when disarmed).
func (r *opRun) faults() clique.FaultStats {
	if r.fi == nil {
		return clique.FaultStats{}
	}
	return r.fi.Stats()
}
