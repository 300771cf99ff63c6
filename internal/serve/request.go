package serve

import (
	"context"
	"errors"
	"fmt"
	"time"

	cc "github.com/algebraic-clique/algclique"
)

// Op identifies a service operation. Every request runs as one session
// call; the requests one dispatch drains share one warm session.
type Op string

const (
	OpMatMul          Op = "matmul"
	OpMatMulBool      Op = "matmul-bool"
	OpDistanceProduct Op = "distance-product"
	OpAPSP            Op = "apsp"
	OpTriangles       Op = "triangles"
	OpSparseSquare    Op = "sparse-square"
)

// Ops lists every operation the service plane accepts.
var Ops = []Op{OpMatMul, OpMatMulBool, OpDistanceProduct, OpAPSP, OpTriangles, OpSparseSquare}

// binary reports whether the op multiplies two operands (A and B); the
// graph ops take a single adjacency/weight matrix in A.
func (o Op) binary() bool {
	switch o {
	case OpMatMul, OpMatMulBool, OpDistanceProduct:
		return true
	}
	return false
}

func (o Op) valid() bool {
	for _, k := range Ops {
		if o == k {
			return true
		}
	}
	return false
}

// Request is one tenant query. A is the left operand — for the graph ops
// the adjacency (0/1) or weight matrix (Inf = no edge) — and B the right
// operand of the product ops. The zero Seed means "unseeded" (the ops
// served here are deterministic anyway; the field exists so future
// randomised ops inherit the plumbing).
type Request struct {
	Tenant string
	Op     Op
	A, B   [][]int64
	Seed   uint64

	// Fault, when set, arms a seeded chaos plan on the request's session
	// operation (cc.WithFaultInjection): the op recovers to a certified
	// bit-correct result or fails with a typed fault-plane error. Plans
	// are per request; requests drained together each get their own
	// injector.
	Fault *cc.FaultPlan
	// Certify > 0 arms result certification with that many probes
	// (cc.WithCertification), which also gives a faulted product its
	// retry budget. Only the product ops certify; validation refuses it
	// on the graph ops.
	Certify int

	ctx      context.Context
	enqueued time.Time
	done     chan Result
	// answered is the dispatcher's single-delivery latch: every admitted
	// request is answered exactly once, even when the serving path
	// panics. Only the owning queue's dispatcher touches it.
	answered bool
}

// callOptions assembles the session CallOptions a request carries into
// its session call.
func (r *Request) callOptions() []cc.CallOption {
	opts := []cc.CallOption{cc.WithContext(r.ctx)}
	if r.Seed != 0 {
		opts = append(opts, cc.WithSeed(r.Seed))
	}
	if r.Fault != nil {
		opts = append(opts, cc.WithFaultInjection(*r.Fault))
	}
	if r.Certify > 0 {
		opts = append(opts, cc.WithCertification(r.Certify))
	}
	return opts
}

// Result is the service's answer to one request.
type Result struct {
	// Matrix holds the result matrix of the matrix-valued ops (products,
	// APSP distances, sparse square); nil for count-valued ops.
	Matrix [][]int64
	// Count holds the triangle count.
	Count int64
	// Stats is the simulated communication cost the session measured.
	Stats cc.Stats
	// QueueWait is the time the request spent queued before its batch
	// started; Service the time from batch start to completion (a request
	// late in a drained batch includes its predecessors' compute).
	QueueWait time.Duration
	Service   time.Duration
	// Err is the request's failure, nil on success. Rejections
	// (*OverloadError, ErrDraining) never reach a session; expirations
	// (context.DeadlineExceeded, context.Canceled) may be decided while
	// still queued.
	Err error
}

// ErrDraining is returned for requests submitted after Shutdown began.
var ErrDraining = errors.New("serve: server is draining")

// errQueueFull and errTenantQuota are the unwrap targets of
// *OverloadError, distinguishing global queue pressure from a single
// tenant exceeding its fair share.
var (
	errQueueFull   = errors.New("serve: queue full")
	errTenantQuota = errors.New("serve: tenant queue quota exceeded")
)

// OverloadError is the admission layer's backpressure signal (HTTP 429):
// the request's (size, op) queue — or the tenant's fair share of it — is
// full. RetryAfter is the server's estimate of when capacity frees up,
// derived from the queue depth and the recent per-request service time.
type OverloadError struct {
	// RetryAfter is the suggested backoff before resubmitting.
	RetryAfter time.Duration
	// Tenant is true when the tenant's per-queue quota, not the whole
	// queue, was exhausted.
	Tenant bool
}

func (e *OverloadError) Error() string {
	if e.Tenant {
		return fmt.Sprintf("serve: tenant queue quota exceeded (retry after %v)", e.RetryAfter)
	}
	return fmt.Sprintf("serve: queue full (retry after %v)", e.RetryAfter)
}

// Unwrap lets errors.Is distinguish the two admission failures.
func (e *OverloadError) Unwrap() error {
	if e.Tenant {
		return errTenantQuota
	}
	return errQueueFull
}

// validate checks a request's shape against the server limits before it
// can occupy a queue slot.
func (r *Request) validate(cfg Config) error {
	if !r.Op.valid() {
		return fmt.Errorf("serve: unknown op %q", r.Op)
	}
	if r.Tenant == "" {
		return errors.New("serve: missing tenant")
	}
	if r.Certify > 0 && !r.Op.binary() {
		// Only the product ops certify; a graph op would refuse on its
		// session, so it is refused here instead, before it takes a slot.
		return fmt.Errorf("serve: op %q: %w", r.Op, cc.ErrNotCertifiable)
	}
	n := len(r.A)
	if n < cfg.MinSize || n > cfg.MaxSize {
		return fmt.Errorf("serve: instance size %d outside the served range [%d, %d]", n, cfg.MinSize, cfg.MaxSize)
	}
	if err := squareShape("a", r.A, n); err != nil {
		return err
	}
	if r.Op.binary() {
		if len(r.B) != n {
			return fmt.Errorf("serve: operand sizes %d and %d differ", n, len(r.B))
		}
		return squareShape("b", r.B, n)
	}
	if r.B != nil {
		return fmt.Errorf("serve: op %q takes a single matrix", r.Op)
	}
	switch r.Op {
	case OpTriangles, OpSparseSquare:
		// The subgraph ops run on undirected simple graphs.
		for i := range r.A {
			for j, v := range r.A[i] {
				if v != 0 && v != 1 {
					return fmt.Errorf("serve: op %q wants a 0/1 adjacency matrix (entry [%d][%d] = %d)", r.Op, i, j, v)
				}
				if r.A[i][j] != r.A[j][i] {
					return fmt.Errorf("serve: op %q wants a symmetric adjacency matrix (entry [%d][%d])", r.Op, i, j)
				}
			}
			if r.A[i][i] != 0 {
				return fmt.Errorf("serve: op %q wants a loop-free adjacency matrix (entry [%d][%d])", r.Op, i, i)
			}
		}
	case OpAPSP:
		for i := range r.A {
			for j, w := range r.A[i] {
				if w < 0 && !cc.IsInf(w) {
					return fmt.Errorf("serve: op %q wants non-negative weights (entry [%d][%d] = %d)", r.Op, i, j, w)
				}
			}
		}
	}
	return nil
}

func squareShape(name string, m [][]int64, n int) error {
	for i, row := range m {
		if len(row) != n {
			return fmt.Errorf("serve: operand %s row %d has %d entries, want %d", name, i, len(row), n)
		}
	}
	return nil
}

// graphOf builds the undirected simple graph a validated adjacency matrix
// describes.
func graphOf(a [][]int64) *cc.Graph {
	n := len(a)
	g := cc.NewGraph(n, false)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if a[i][j] != 0 {
				g.AddEdge(i, j)
			}
		}
	}
	return g
}

// weightedOf builds the directed weighted graph a validated weight matrix
// describes (Inf = no edge; the diagonal is implicitly zero).
func weightedOf(a [][]int64) *cc.Weighted {
	n := len(a)
	g := cc.NewWeighted(n, true)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && !cc.IsInf(a[i][j]) {
				g.SetEdge(i, j, a[i][j])
			}
		}
	}
	return g
}
