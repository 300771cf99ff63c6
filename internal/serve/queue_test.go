package serve

import (
	"errors"
	"testing"
	"time"
)

func req(tenant string, at time.Time) *Request {
	return &Request{Tenant: tenant, Op: OpMatMul, enqueued: at}
}

func TestQueueAdmitRejections(t *testing.T) {
	q := newQueue(qkey{n: 8, op: OpMatMul}, 4, 2, 4)
	t0 := time.Now()

	if err := q.admit(req("a", t0)); err != nil {
		t.Fatal(err)
	}
	if err := q.admit(req("a", t0)); err != nil {
		t.Fatal(err)
	}
	// Third request from the same tenant exceeds its quota of 2 even
	// though the queue has room.
	err := q.admit(req("a", t0))
	if !errors.Is(err, errTenantQuota) {
		t.Fatalf("over-quota admit = %v, want tenant quota error", err)
	}
	var overload *OverloadError
	if !errors.As(err, &overload) || !overload.Tenant || overload.RetryAfter <= 0 {
		t.Fatalf("over-quota admit = %#v, want *OverloadError{Tenant: true} with a retry hint", err)
	}

	// Other tenants fill the remaining slots; the next admission fails on
	// global capacity regardless of tenant.
	if err := q.admit(req("b", t0)); err != nil {
		t.Fatal(err)
	}
	if err := q.admit(req("c", t0)); err != nil {
		t.Fatal(err)
	}
	err = q.admit(req("d", t0))
	if !errors.Is(err, errQueueFull) {
		t.Fatalf("full-queue admit = %v, want queue-full error", err)
	}
	if !errors.As(err, &overload) || overload.Tenant || overload.RetryAfter <= 0 {
		t.Fatalf("full-queue admit = %#v, want *OverloadError{Tenant: false} with a retry hint", err)
	}

	q.seal()
	if err := q.admit(req("b", t0)); !errors.Is(err, ErrDraining) {
		t.Fatalf("sealed admit = %v, want ErrDraining", err)
	}
	// Sealed queues keep their backlog for draining.
	if size, sealed := q.state(); size != 4 || !sealed {
		t.Fatalf("state = (%d, %v), want (4, true)", size, sealed)
	}
}

func TestQueueTakeRoundRobinAcrossTenants(t *testing.T) {
	q := newQueue(qkey{n: 8, op: OpMatMul}, 16, 8, 16)
	t0 := time.Now()

	// A hog tenant enqueues 6 requests before two small tenants enqueue
	// 2 each. A fair batch must interleave, not serve the hog's backlog
	// first.
	for i := 0; i < 6; i++ {
		if err := q.admit(req("hog", t0.Add(time.Duration(i)))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := q.admit(req("x", t0.Add(time.Duration(10+i)))); err != nil {
			t.Fatal(err)
		}
		if err := q.admit(req("y", t0.Add(time.Duration(20+i)))); err != nil {
			t.Fatal(err)
		}
	}

	batch := q.take(6)
	if len(batch) != 6 {
		t.Fatalf("take(6) returned %d requests", len(batch))
	}
	byTenant := map[string]int{}
	for _, r := range batch {
		byTenant[r.Tenant]++
	}
	if byTenant["hog"] != 2 || byTenant["x"] != 2 || byTenant["y"] != 2 {
		t.Fatalf("batch composition = %v, want 2 per tenant", byTenant)
	}
	// FIFO within each tenant: the hog's first two requests come first.
	var hogTimes []time.Time
	for _, r := range batch {
		if r.Tenant == "hog" {
			hogTimes = append(hogTimes, r.enqueued)
		}
	}
	if !hogTimes[0].Equal(t0) || !hogTimes[1].Equal(t0.Add(1)) {
		t.Fatalf("hog requests served out of FIFO order: %v", hogTimes)
	}

	// The remainder is all hog; take drains it and the queue empties.
	rest := q.take(16)
	if len(rest) != 4 {
		t.Fatalf("second take returned %d requests, want 4", len(rest))
	}
	for _, r := range rest {
		if r.Tenant != "hog" {
			t.Fatalf("leftover request from tenant %q", r.Tenant)
		}
	}
	if size, _ := q.state(); size != 0 {
		t.Fatalf("queue size = %d after draining, want 0", size)
	}
}
