// Package serve is the multi-tenant service plane over warm algclique
// sessions: a long-running process multiplexing many callers over a
// budgeted pool of per-size sessions. Requests pass three layers —
//
//  1. admission: bounded per-(size, op) queues with per-tenant quotas;
//     full queues reject immediately with a Retry-After estimate
//     (*OverloadError → HTTP 429) instead of building unbounded backlog;
//  2. dispatch: a dispatcher per active queue is work-conserving — an
//     idle one takes what is queued at once, so a drained batch is
//     whatever arrived while the previous one was in service, up to
//     MaxBatch; batches are composed round-robin across tenants, so one
//     tenant's backlog cannot starve the rest;
//  3. execution: a warm session checked out of the Pool serves the batch,
//     one session call per request, each under its own cancellation
//     context; expired requests are answered without ever touching a
//     session.
//
// Per-tenant ledgers aggregate the session Stats (rounds, words, routing
// decisions) plus queue wait and service time. Shutdown seals admission
// and drains: every admitted request is answered before Shutdown returns.
package serve

import (
	"context"
	"fmt"
	"time"

	"sync"

	cc "github.com/algebraic-clique/algclique"
)

// Config tunes the service plane. The zero value is not usable; call
// (Config).withDefaults or use DefaultConfig.
type Config struct {
	// MemoryBudget bounds the session pool's estimated footprint in
	// bytes (0 = the 256 MiB default, < 0 = unbounded). Under pressure
	// the pool Trims idle sessions first, then evicts them LRU.
	MemoryBudget int64
	// QueueCap bounds each (size, op) admission queue; TenantQueueCap
	// bounds one tenant's share of it (defaults to half).
	QueueCap       int
	TenantQueueCap int
	// MaxBatch caps how many requests one dispatch drains onto a pooled
	// session. No request waits for co-batchers: a batch is what queued
	// while the previous one was in service.
	MaxBatch int
	// MinSize and MaxSize bound the served instance sizes.
	MinSize, MaxSize int
	// SessionOptions configure every pooled session (engine, workers,
	// transport, sparse threshold).
	SessionOptions []cc.SessionOption
}

// DefaultConfig is the served default: a 256 MiB pool, 64-deep queues,
// batches of at most 16 requests, sizes 2–512.
func DefaultConfig() Config { return Config{}.withDefaults() }

func (c Config) withDefaults() Config {
	if c.MemoryBudget == 0 {
		c.MemoryBudget = 256 << 20
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.TenantQueueCap <= 0 {
		c.TenantQueueCap = (c.QueueCap + 1) / 2
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 16
	}
	if c.MinSize <= 0 {
		c.MinSize = 2
	}
	if c.MaxSize <= 0 {
		c.MaxSize = 512
	}
	return c
}

// Server is the service plane. Build with New, submit with Do (or the
// HTTP handler), stop with Shutdown.
type Server struct {
	cfg    Config
	pool   *Pool
	ledger *ledger

	mu          sync.Mutex
	queues      map[qkey]*queue
	draining    bool
	stopc       chan struct{}
	drained     chan struct{}
	dispatchers sync.WaitGroup

	// hold is a test seam, nil in production: while it is open, a
	// dispatcher with requests pending waits before taking them, so
	// whatever is admitted meanwhile forms its next batch. Closing it, or
	// Shutdown, releases every dispatcher.
	hold chan struct{}
}

// New builds a server; it owns a fresh session pool.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		pool:    NewPool(cfg.MemoryBudget, cfg.SessionOptions...),
		ledger:  newLedger(),
		queues:  make(map[qkey]*queue),
		stopc:   make(chan struct{}),
		drained: make(chan struct{}),
	}
}

// Config returns the server's effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Pool exposes the session pool's accounting.
func (s *Server) Pool() PoolStats { return s.pool.Stats() }

// Tenants returns a snapshot of every tenant's ledger.
func (s *Server) Tenants() map[string]TenantStats { return s.ledger.snapshot() }

// QueueStats describes one admission queue's state.
type QueueStats struct {
	N     int `json:"n"`
	Op    Op  `json:"op"`
	Depth int `json:"depth"`
	Cap   int `json:"cap"`
	// EwmaServiceMs is the smoothed per-request service time backing the
	// Retry-After estimates.
	EwmaServiceMs float64 `json:"ewma_service_ms"`
}

// Queues returns a snapshot of every active admission queue.
func (s *Server) Queues() []QueueStats {
	s.mu.Lock()
	qs := make([]*queue, 0, len(s.queues))
	for _, q := range s.queues {
		qs = append(qs, q)
	}
	s.mu.Unlock()
	out := make([]QueueStats, 0, len(qs))
	for _, q := range qs {
		q.mu.Lock()
		out = append(out, QueueStats{
			N: q.key.n, Op: q.key.op, Depth: q.size, Cap: q.cap,
			EwmaServiceMs: float64(q.ewmaPerReqNs) / 1e6,
		})
		q.mu.Unlock()
	}
	return out
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Do submits a request and waits for its result. ctx is the request's
// deadline/cancellation: it rejects the wait (and, if still queued when a
// dispatcher reaches it, the request itself) once done. Backpressure
// surfaces as *OverloadError, draining as ErrDraining — neither occupies
// a queue slot. An admitted request is always answered, even when the
// submitting caller has given up.
func (s *Server) Do(ctx context.Context, req Request) Result {
	if err := req.validate(s.cfg); err != nil {
		return Result{Err: err}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	req.ctx = ctx
	req.enqueued = time.Now()
	req.done = make(chan Result, 1)

	q, err := s.queueFor(qkey{n: len(req.A), op: req.Op})
	if err != nil {
		s.ledger.rejected(req.Tenant)
		return Result{Err: err}
	}
	if err := q.admit(&req); err != nil {
		s.ledger.rejected(req.Tenant)
		return Result{Err: err}
	}
	s.ledger.admitted(req.Tenant)
	select {
	case res := <-req.done:
		return res
	case <-ctx.Done():
		// The request stays admitted; its dispatcher will observe the
		// expired context and answer it (into the buffered channel).
		return Result{Err: ctx.Err()}
	}
}

// queueFor returns (building on demand) the admission queue for key,
// starting its dispatcher. New queues are refused while draining.
func (s *Server) queueFor(key qkey) (*queue, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil, ErrDraining
	}
	if q, ok := s.queues[key]; ok {
		return q, nil
	}
	q := newQueue(key, s.cfg.QueueCap, s.cfg.TenantQueueCap, s.cfg.MaxBatch)
	s.queues[key] = q
	s.dispatchers.Add(1)
	go s.dispatch(q)
	return q, nil
}

// dispatch is one queue's service loop: wait for pending requests, take
// up to MaxBatch of them at once, serve the batch on a pooled session. No
// timer holds a request back for co-batchers — with nothing batching
// (one request per queue at a time, the common case at moderate load) a
// window would be pure latency — so a batch is whatever queued while the
// previous one was in service. It exits once the queue is sealed and
// empty.
func (s *Server) dispatch(q *queue) {
	defer s.dispatchers.Done()
	for {
		if !s.waitPending(q) {
			return
		}
		if s.hold != nil {
			select {
			case <-s.hold:
			case <-s.stopc:
			}
		}
		if batch := q.take(q.maxBatch); len(batch) > 0 {
			s.serveBatch(q, batch)
		}
	}
}

// waitPending blocks until q has a waiting request (true) or is sealed
// and empty (false).
func (s *Server) waitPending(q *queue) bool {
	for {
		size, sealed := q.state()
		if size > 0 {
			return true
		}
		if sealed {
			return false
		}
		select {
		case <-q.wake:
		case <-s.stopc:
			// Sealing happens before stopc closes; loop once more and
			// exit when the queue reads empty.
		}
	}
}

// SessionPanicError is the answer to a request whose operation panicked
// on its serving session. The panic is contained at the dispatcher; the
// session is poisoned — discarded from the pool, never serving another
// request — and only the guilty request pays for it.
type SessionPanicError struct {
	// Op is the operation that panicked.
	Op Op
	// Panic is the recovered panic value.
	Panic any
}

func (e *SessionPanicError) Error() string {
	return fmt.Sprintf("serve: %s panicked on its session (session discarded): %v", e.Op, e.Panic)
}

// serveBatch answers one drained batch: expired requests immediately,
// everything else on a warm session, one session call per request. The
// deferred guard is the dispatcher's last resort: the session-call panics
// are recovered in runOp, so anything reaching it is a bug in the serving
// path itself — it must still neither kill the dispatcher nor strand an
// admitted request.
func (s *Server) serveBatch(q *queue, batch []*Request) {
	start := time.Now()
	defer func() {
		r := recover()
		if r == nil {
			return
		}
		for _, req := range batch {
			if !req.answered {
				s.respond(q, req, start, Result{Err: fmt.Errorf("serve: internal panic serving batch: %v", r)})
			}
		}
	}()
	live := make([]*Request, 0, len(batch))
	for _, req := range batch {
		if err := req.ctx.Err(); err != nil {
			wait := start.Sub(req.enqueued)
			s.ledger.expired(req.Tenant, wait)
			req.answered = true
			req.done <- Result{Err: err, QueueWait: wait}
			continue
		}
		live = append(live, req)
	}
	if len(live) == 0 {
		return
	}
	s.serveOps(q, live, start)
	if dur := time.Since(start); len(live) > 0 {
		q.observe(dur / time.Duration(len(live)))
	}
}

// respond completes one request: stamps queue wait and service time,
// folds the result into the tenant ledger, and delivers it.
func (s *Server) respond(q *queue, req *Request, start time.Time, res Result) {
	now := time.Now()
	res.QueueWait = start.Sub(req.enqueued)
	res.Service = now.Sub(start)
	s.ledger.served(req.Tenant, &res)
	req.answered = true
	req.done <- res
}

// serveOps runs the drained requests one session call each, sharing one
// warm session until a call panics: the poisoned session is discarded —
// never re-pooled — the guilty request is answered with
// *SessionPanicError, and the rest of the drain continues on a fresh one.
// A healthy session goes back to the pool before the drain's last answer.
func (s *Server) serveOps(q *queue, reqs []*Request, start time.Time) {
	remaining := reqs
	for len(remaining) > 0 {
		sess, _, err := s.pool.Get(q.key.n)
		if err != nil {
			for _, req := range remaining {
				s.respond(q, req, start, Result{Err: err})
			}
			return
		}
		poisoned := false
		for len(remaining) > 0 && !poisoned {
			req := remaining[0]
			remaining = remaining[1:]
			var res Result
			res, poisoned = runOp(sess, req)
			switch {
			case poisoned:
				// Discard before answering: a caller holding the
				// *SessionPanicError must find the session already gone.
				s.pool.Discard(sess)
			case len(remaining) == 0:
				// Re-pool before the drain's last answer, for the same
				// reason: that caller's next request must find the
				// session back in the pool, not build a second one.
				s.pool.Put(sess)
			}
			s.respond(q, req, start, res)
		}
	}
}

// runOp executes one request on a session, converting an escaping panic
// into *SessionPanicError and a poisoned signal. This recover is what
// keeps a dispatcher alive across a panicking run.
func runOp(sess *cc.Clique, req *Request) (res Result, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			res = Result{Err: &SessionPanicError{Op: req.Op, Panic: r}}
			panicked = true
		}
	}()
	opts := req.callOptions()
	switch req.Op {
	case OpMatMul:
		prod, stats, err := sess.MatMul(req.A, req.B, opts...)
		return Result{Matrix: prod, Stats: stats, Err: err}, false
	case OpMatMulBool:
		prod, stats, err := sess.MatMulBool(req.A, req.B, opts...)
		return Result{Matrix: prod, Stats: stats, Err: err}, false
	case OpDistanceProduct:
		prod, stats, err := sess.DistanceProduct(req.A, req.B, opts...)
		return Result{Matrix: prod, Stats: stats, Err: err}, false
	case OpAPSP:
		apsp, stats, err := sess.APSP(weightedOf(req.A), opts...)
		if err != nil {
			return Result{Err: err, Stats: stats}, false
		}
		return Result{Matrix: apsp.Dist, Stats: stats}, false
	case OpTriangles:
		count, stats, err := sess.CountTriangles(graphOf(req.A), opts...)
		return Result{Count: count, Stats: stats, Err: err}, false
	case OpSparseSquare:
		sq, stats, err := sess.SquareAdjacencySparse(graphOf(req.A), opts...)
		return Result{Matrix: sq, Stats: stats, Err: err}, false
	}
	return Result{Err: fmt.Errorf("serve: unknown op %q", req.Op)}, false
}

// Shutdown drains the server gracefully: admission seals immediately (new
// requests get ErrDraining), every already-admitted request is served or
// answered, the dispatchers exit, and the pool closes. ctx bounds the
// wait; on expiry the server keeps draining in the background but
// Shutdown returns ctx.Err(). Shutdown is idempotent.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, q := range s.queues {
			q.seal()
		}
		close(s.stopc)
		go func() {
			s.dispatchers.Wait()
			s.pool.Close()
			close(s.drained)
		}()
	}
	s.mu.Unlock()

	select {
	case <-s.drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
