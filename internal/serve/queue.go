package serve

import (
	"sync"
	"time"
)

// qkey identifies one admission queue: requests of one operation on one
// instance size (the op fixes the algebra) are drained onto one session.
type qkey struct {
	n  int
	op Op
}

// tenantq is one tenant's FIFO inside a queue.
type tenantq struct {
	name string
	reqs []*Request
}

// queue is a bounded, tenant-fair admission queue for one (size, op) key.
// Requests are held in per-tenant FIFOs; take composes batches round-robin
// across tenants, so a hog tenant's backlog cannot starve the others —
// each take hands every waiting tenant an equal share of the batch
// (up to rounding). Admission rejects when the queue is full or when one
// tenant holds more than its quota of the slots, which bounds how much of
// the shared capacity a single tenant can occupy.
type queue struct {
	key          qkey
	cap          int
	tenantQuota  int
	maxBatch     int
	ewmaPerReqNs int64 // smoothed per-request service time, retry estimates

	mu      sync.Mutex
	size    int
	sealed  bool
	tenants map[string]*tenantq
	ring    []*tenantq // round-robin order over tenants with waiting requests
	next    int        // ring cursor
	wake    chan struct{}
}

func newQueue(key qkey, capacity, tenantQuota, maxBatch int) *queue {
	return &queue{
		key: key, cap: capacity, tenantQuota: tenantQuota, maxBatch: maxBatch,
		tenants: make(map[string]*tenantq),
		wake:    make(chan struct{}, 1),
	}
}

// admit enqueues a request, or rejects it with *OverloadError (queue or
// tenant quota full) / ErrDraining (sealed).
func (q *queue) admit(r *Request) error {
	q.mu.Lock()
	if q.sealed {
		q.mu.Unlock()
		return ErrDraining
	}
	if q.size >= q.cap {
		retry := q.retryAfterLocked(q.size)
		q.mu.Unlock()
		return &OverloadError{RetryAfter: retry}
	}
	tq := q.tenants[r.Tenant]
	if tq == nil {
		tq = &tenantq{name: r.Tenant}
		q.tenants[r.Tenant] = tq
	}
	if len(tq.reqs) >= q.tenantQuota {
		retry := q.retryAfterLocked(len(tq.reqs))
		q.mu.Unlock()
		return &OverloadError{RetryAfter: retry, Tenant: true}
	}
	if len(tq.reqs) == 0 {
		q.ring = append(q.ring, tq)
	}
	tq.reqs = append(tq.reqs, r)
	q.size++
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
	return nil
}

// retryAfterLocked estimates when a rejected caller should retry: the
// depth ahead of it times the smoothed per-request service time, clamped
// to a sane range (mu held).
func (q *queue) retryAfterLocked(depth int) time.Duration {
	per := time.Duration(q.ewmaPerReqNs)
	if per <= 0 {
		per = 5 * time.Millisecond
	}
	retry := per * time.Duration(depth)
	if retry < 10*time.Millisecond {
		retry = 10 * time.Millisecond
	}
	if retry > 5*time.Second {
		retry = 5 * time.Second
	}
	return retry
}

// observe folds a completed batch's per-request service time into the
// retry estimate.
func (q *queue) observe(perReq time.Duration) {
	q.mu.Lock()
	if q.ewmaPerReqNs == 0 {
		q.ewmaPerReqNs = perReq.Nanoseconds()
	} else {
		q.ewmaPerReqNs = (3*q.ewmaPerReqNs + perReq.Nanoseconds()) / 4
	}
	q.mu.Unlock()
}

// state reports the queue depth and whether it is sealed.
func (q *queue) state() (size int, sealed bool) {
	q.mu.Lock()
	size, sealed = q.size, q.sealed
	q.mu.Unlock()
	return
}

// seal rejects all future admissions; already-queued requests stay and
// must be drained.
func (q *queue) seal() {
	q.mu.Lock()
	q.sealed = true
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// take removes up to max requests, round-robin across the tenants with
// waiting requests — one request per tenant per ring pass — preserving
// each tenant's FIFO order.
func (q *queue) take(max int) []*Request {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.size == 0 || max <= 0 {
		return nil
	}
	if max > q.size {
		max = q.size
	}
	batch := make([]*Request, 0, max)
	for len(batch) < max && len(q.ring) > 0 {
		if q.next >= len(q.ring) {
			q.next = 0
		}
		tq := q.ring[q.next]
		batch = append(batch, tq.reqs[0])
		tq.reqs = tq.reqs[1:]
		if len(tq.reqs) == 0 {
			q.ring = append(q.ring[:q.next], q.ring[q.next+1:]...)
			// The cursor now points at the next tenant already.
		} else {
			q.next++
		}
	}
	q.size -= len(batch)
	return batch
}
