package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	cc "github.com/algebraic-clique/algclique"
)

// testMat builds a deterministic n×n matrix with small entries.
func testMat(n int, salt int64) [][]int64 {
	m := make([][]int64, n)
	x := uint64(salt)*2862933555777941757 + 3037000493
	for i := range m {
		m[i] = make([]int64, n)
		for j := range m[i] {
			x = x*2862933555777941757 + 3037000493
			m[i][j] = int64(x % 7)
		}
	}
	return m
}

func naiveMul(a, b [][]int64) [][]int64 {
	n := len(a)
	c := make([][]int64, n)
	for i := range c {
		c[i] = make([]int64, n)
		for k := 0; k < n; k++ {
			if a[i][k] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				c[i][j] += a[i][k] * b[k][j]
			}
		}
	}
	return c
}

func matEq(a, b [][]int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// heldServer builds a server whose dispatchers leave every request queued
// until release is called or Shutdown begins, so a test decides which
// requests are waiting together when a dispatcher takes its next batch.
func heldServer(cfg Config) (s *Server, release func()) {
	s = New(cfg)
	s.hold = make(chan struct{})
	var once sync.Once
	return s, func() { once.Do(func() { close(s.hold) }) }
}

// waitAdmitted waits until the server has admitted want requests over all
// tenants.
func waitAdmitted(t *testing.T, s *Server, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var admitted int64
		for _, ts := range s.Tenants() {
			admitted += ts.Admitted
		}
		if admitted >= want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d requests admitted after 5s: %+v", admitted, want, s.Tenants())
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// orderCtx logs its tenant the first time its Err is read. serveBatch reads
// every request's context once, in batch order, before anything else does,
// so the log is the order the batches were composed in.
type orderCtx struct {
	context.Context
	tenant string
	log    *orderLog
	once   sync.Once
}

func (c *orderCtx) Err() error {
	c.once.Do(func() { c.log.add(c.tenant) })
	return c.Context.Err()
}

type orderLog struct {
	mu      sync.Mutex
	tenants string
}

func (l *orderLog) add(tenant string) {
	l.mu.Lock()
	l.tenants += tenant
	l.mu.Unlock()
}

// TestDispatchBatchesWhatArrivedInService pins the dispatch rule: a batch
// is what queued while the dispatcher was busy, up to MaxBatch, composed
// round-robin across tenants. The requests are admitted one at a time
// while the dispatcher is held, each tenant's in a run, so FIFO order
// and round-robin order differ.
func TestDispatchBatchesWhatArrivedInService(t *testing.T) {
	const maxBatch = 4
	a, b := testMat(8, 1), testMat(8, 2)
	want := naiveMul(a, b)
	for _, c := range []struct {
		admitted string // one tenant letter per request, in admission order
		batches  int64
		served   string // tenants in the order the batches hold them
	}{
		{admitted: "abc", batches: 1, served: "abc"},
		{admitted: "aabc", batches: 1, served: "abca"},
		// 2·MaxBatch + 1: [a b c a] [b c a a] [a].
		{admitted: "aaaaabbcc", batches: 3, served: "abcabcaaa"},
	} {
		s, release := heldServer(Config{MaxBatch: maxBatch})
		log := &orderLog{}
		var wg sync.WaitGroup
		results := make([]Result, len(c.admitted))
		for i, tenant := range c.admitted {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ctx := &orderCtx{Context: context.Background(), tenant: string(tenant), log: log}
				results[i] = s.Do(ctx, Request{Tenant: string(tenant), Op: OpMatMul, A: a, B: b})
			}()
			waitAdmitted(t, s, int64(i+1))
		}
		if st := s.Pool(); st.Hits+st.Misses != 0 {
			t.Fatalf("%s: a held dispatcher checked out a session: %+v", c.admitted, st)
		}
		release()
		wg.Wait()
		for i, r := range results {
			if r.Err != nil || !matEq(r.Matrix, want) {
				t.Fatalf("%s: request %d: err %v or a wrong product", c.admitted, i, r.Err)
			}
		}
		if st := s.Pool(); st.Hits+st.Misses != c.batches {
			t.Errorf("%s: %d pool gets, want %d batches", c.admitted, st.Hits+st.Misses, c.batches)
		}
		if log.tenants != c.served {
			t.Errorf("%s: served in order %s, want round-robin %s", c.admitted, log.tenants, c.served)
		}
		s.Shutdown(context.Background())
	}
}

// TestBatchMatchesSingleCalls pins a drained batch to the call-by-call
// results: for each product op, the requests one dispatch serves on a
// shared pooled session get the products and the charged rounds and words
// of the same calls each on a fresh session.
func TestBatchMatchesSingleCalls(t *testing.T) {
	const n, k = 8, 3
	for _, op := range []Op{OpMatMul, OpMatMulBool, OpDistanceProduct} {
		t.Run(string(op), func(t *testing.T) {
			s, release := heldServer(Config{MaxBatch: k})
			defer s.Shutdown(context.Background())
			reqs := make([]Request, k)
			results := make([]Result, k)
			var wg sync.WaitGroup
			for i := range reqs {
				reqs[i] = Request{Tenant: "t", Op: op, A: testMat(n, int64(10+2*i)), B: testMat(n, int64(11+2*i))}
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i] = s.Do(context.Background(), reqs[i])
				}()
				waitAdmitted(t, s, int64(i+1))
			}
			release()
			wg.Wait()
			if st := s.Pool(); st.Hits+st.Misses != 1 {
				t.Fatalf("%d pool gets, want the %d requests served on one session", st.Hits+st.Misses, k)
			}
			for i, req := range reqs {
				fresh, err := cc.NewClique(n)
				if err != nil {
					t.Fatal(err)
				}
				var want cc.Mat
				var wantSt cc.Stats
				switch op {
				case OpMatMul:
					want, wantSt, err = fresh.MatMul(req.A, req.B)
				case OpMatMulBool:
					want, wantSt, err = fresh.MatMulBool(req.A, req.B)
				case OpDistanceProduct:
					want, wantSt, err = fresh.DistanceProduct(req.A, req.B)
				}
				fresh.Close()
				if err != nil {
					t.Fatal(err)
				}
				got := results[i]
				if got.Err != nil {
					t.Fatalf("request %d: %v", i, got.Err)
				}
				if !matEq(got.Matrix, want) {
					t.Errorf("request %d: drained product differs from the single call", i)
				}
				if got.Stats.Rounds != wantSt.Rounds || got.Stats.Words != wantSt.Words {
					t.Errorf("request %d: %d rounds / %d words in the drain, %d / %d as a single call",
						i, got.Stats.Rounds, got.Stats.Words, wantSt.Rounds, wantSt.Words)
				}
			}
		})
	}
}

// TestBatchPerItemContext cancels one request of a drained batch while it
// waits: that request alone expires, and the others are served on the
// drain's one session.
func TestBatchPerItemContext(t *testing.T) {
	const n = 8
	a, b := testMat(n, 1), testMat(n, 2)
	want := naiveMul(a, b)
	s, release := heldServer(Config{MaxBatch: 4})
	defer s.Shutdown(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	results := make([]Result, 3)
	var wg sync.WaitGroup
	for i := range results {
		reqCtx := context.Background()
		if i == 1 {
			reqCtx = ctx
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = s.Do(reqCtx, Request{Tenant: "t", Op: OpMatMul, A: a, B: b})
		}()
		waitAdmitted(t, s, int64(i+1))
	}
	cancel() // the middle request expires in the queue
	release()
	wg.Wait()

	if !errors.Is(results[1].Err, context.Canceled) {
		t.Fatalf("cancelled request: err = %v, want context.Canceled", results[1].Err)
	}
	for _, i := range []int{0, 2} {
		if results[i].Err != nil || !matEq(results[i].Matrix, want) {
			t.Fatalf("request %d drained with the cancelled one: err %v or a wrong product", i, results[i].Err)
		}
	}
	if st := s.Pool(); st.Hits+st.Misses != 1 {
		t.Errorf("%d pool gets, want the two live requests served on one session", st.Hits+st.Misses)
	}
	if ts := s.Tenants()["t"]; ts.Admitted != 3 || ts.Completed != 2 || ts.Expired != 1 {
		t.Errorf("tenant ledger = %+v, want 3 admitted / 2 completed / 1 expired", ts)
	}
}

func TestServerMatMulRoundTrip(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())

	a, b := testMat(8, 1), testMat(8, 2)
	res := s.Do(context.Background(), Request{Tenant: "t", Op: OpMatMul, A: a, B: b})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !matEq(res.Matrix, naiveMul(a, b)) {
		t.Fatal("served product differs from the naive reference")
	}
	if res.Stats.Rounds == 0 {
		t.Fatal("served result carries no session stats")
	}
	if res.Service <= 0 || res.QueueWait < 0 {
		t.Fatalf("timings not stamped: wait %v, service %v", res.QueueWait, res.Service)
	}
	ts := s.Tenants()["t"]
	if ts.Admitted != 1 || ts.Completed != 1 || ts.Rounds != res.Stats.Rounds {
		t.Fatalf("tenant ledger = %+v, want the one completed request folded in", ts)
	}
}

func TestServerValidationRejects(t *testing.T) {
	s := New(Config{MinSize: 4, MaxSize: 16})
	defer s.Shutdown(context.Background())
	ctx := context.Background()

	edgeless := make([][]int64, 8)
	for i := range edgeless {
		edgeless[i] = make([]int64, 8)
	}
	cases := []Request{
		{Tenant: "t", Op: "nope", A: testMat(8, 1), B: testMat(8, 2)},
		{Tenant: "", Op: OpMatMul, A: testMat(8, 1), B: testMat(8, 2)},
		{Tenant: "t", Op: OpMatMul, A: testMat(2, 1), B: testMat(2, 2)},   // below MinSize
		{Tenant: "t", Op: OpMatMul, A: testMat(32, 1), B: testMat(32, 2)}, // above MaxSize
		{Tenant: "t", Op: OpMatMul, A: testMat(8, 1), B: testMat(6, 2)},   // size mismatch
		{Tenant: "t", Op: OpTriangles, A: testMat(8, 1)},                  // not 0/1
		{Tenant: "t", Op: OpTriangles, A: testMat(8, 1), B: testMat(8, 2)},
		{Tenant: "t", Op: OpTriangles, A: edgeless, Certify: 4}, // a valid graph, but graph ops do not certify
	}
	for i, req := range cases {
		if res := s.Do(ctx, req); res.Err == nil {
			t.Errorf("case %d: invalid request was accepted", i)
		}
	}
	if res := s.Do(ctx, cases[len(cases)-1]); !errors.Is(res.Err, cc.ErrNotCertifiable) {
		t.Errorf("certified graph op: err = %v, want cc.ErrNotCertifiable", res.Err)
	}
	// None of these may have touched a session or a queue slot.
	if st := s.Pool(); st.Hits+st.Misses != 0 {
		t.Fatalf("invalid requests reached the pool: %+v", st)
	}
}

func TestServerExpiredRequestNeverReachesSession(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())

	ctx, cancel := context.WithCancel(context.Background())
	cancel() // expired before the dispatcher can reach it
	res := s.Do(ctx, Request{Tenant: "t", Op: OpMatMul, A: testMat(8, 1), B: testMat(8, 2)})
	if !errors.Is(res.Err, context.Canceled) {
		t.Fatalf("Do = %v, want context.Canceled", res.Err)
	}
	// The dispatcher answers the stale request asynchronously; wait for
	// the ledger to record the expiry, then check no session was used.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if ts := s.Tenants()["t"]; ts.Expired == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("expiry never reached the ledger: %+v", s.Tenants()["t"])
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.Pool(); st.Hits+st.Misses != 0 {
		t.Fatalf("expired request checked out a session: %+v", st)
	}
}

func TestServerTenantQuotaUnderHog(t *testing.T) {
	// The held dispatcher keeps the hog's requests queued while the quota
	// and the other tenant's admission are probed.
	s, release := heldServer(Config{
		QueueCap:       8,
		TenantQueueCap: 4,
		MaxBatch:       16,
	})
	defer s.Shutdown(context.Background())

	a, b := testMat(8, 1), testMat(8, 2)
	want := naiveMul(a, b)
	ctx := context.Background()

	var wg sync.WaitGroup
	hogRes := make([]Result, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			hogRes[i] = s.Do(ctx, Request{Tenant: "hog", Op: OpMatMul, A: a, B: b})
		}(i)
	}
	waitAdmitted(t, s, 4)

	res := s.Do(ctx, Request{Tenant: "hog", Op: OpMatMul, A: a, B: b})
	if !errors.Is(res.Err, errTenantQuota) {
		t.Fatalf("hog's 5th request = %v, want tenant quota rejection", res.Err)
	}
	var overload *OverloadError
	if !errors.As(res.Err, &overload) || !overload.Tenant {
		t.Fatalf("hog's 5th request = %#v, want *OverloadError{Tenant: true}", res.Err)
	}

	// The other tenant still gets in while the hog's backlog is queued:
	// the hog exhausted its quota, not the queue.
	mousec := make(chan Result, 1)
	go func() { mousec <- s.Do(ctx, Request{Tenant: "mouse", Op: OpMatMul, A: a, B: b}) }()
	waitAdmitted(t, s, 5)
	release()
	mouse := <-mousec
	if mouse.Err != nil {
		t.Fatalf("mouse request failed while only the hog was over quota: %v", mouse.Err)
	}
	if !matEq(mouse.Matrix, want) {
		t.Fatal("mouse got a wrong product")
	}
	wg.Wait()
	for i, r := range hogRes {
		if r.Err != nil {
			t.Fatalf("hog request %d failed: %v", i, r.Err)
		}
		if !matEq(r.Matrix, want) {
			t.Fatalf("hog request %d got a wrong product", i)
		}
	}
	ts := s.Tenants()["hog"]
	if ts.Rejected != 1 || ts.Completed != 4 {
		t.Fatalf("hog ledger = %+v, want 4 completed / 1 rejected", ts)
	}
}

func TestServerGracefulDrainLosesNothing(t *testing.T) {
	// Held dispatchers keep whatever is admitted queued until Shutdown
	// releases them, so the drain has a backlog to answer.
	s, _ := heldServer(Config{MaxBatch: 8})

	tenants := []string{"alpha", "beta", "gamma", "delta"}
	ops := []Op{OpMatMul, OpMatMulBool, OpDistanceProduct, OpTriangles}
	const perTenant = 10

	graph := make([][]int64, 8)
	for i := range graph {
		graph[i] = make([]int64, 8)
	}
	for i := 0; i < 7; i++ {
		graph[i][i+1], graph[i+1][i] = 1, 1
	}

	var wg sync.WaitGroup
	results := make(chan Result, len(tenants)*perTenant)
	for ti, tenant := range tenants {
		for i := 0; i < perTenant; i++ {
			wg.Add(1)
			go func(tenant string, k int) {
				defer wg.Done()
				op := ops[k%len(ops)]
				req := Request{Tenant: tenant, Op: op}
				if op == OpTriangles {
					req.A = graph
				} else {
					req.A, req.B = testMat(8, int64(k)), testMat(8, int64(k+100))
				}
				results <- s.Do(context.Background(), req)
			}(tenant, ti*perTenant+i)
		}
	}

	// Shut down while the submissions are in flight: everything admitted
	// must still be answered, everything else must see ErrDraining.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	wg.Wait()
	close(results)

	var served, drained int
	for res := range results {
		switch {
		case res.Err == nil:
			served++
		case errors.Is(res.Err, ErrDraining):
			drained++
		default:
			t.Fatalf("request lost to unexpected error: %v", res.Err)
		}
	}
	if served+drained != len(tenants)*perTenant {
		t.Fatalf("accounted for %d of %d requests", served+drained, len(tenants)*perTenant)
	}

	var admitted, completed int64
	for _, ts := range s.Tenants() {
		admitted += ts.Admitted
		completed += ts.Completed
	}
	if admitted != int64(served) || completed != admitted {
		t.Fatalf("ledger: admitted %d, completed %d, served %d — admitted requests were lost",
			admitted, completed, served)
	}

	// Shutdown is idempotent and the pool is closed.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	if res := s.Do(context.Background(), Request{Tenant: "late", Op: OpMatMul, A: testMat(8, 1), B: testMat(8, 2)}); !errors.Is(res.Err, ErrDraining) {
		t.Fatalf("post-shutdown Do = %v, want ErrDraining", res.Err)
	}
}

func TestServerGraphOps(t *testing.T) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	ctx := context.Background()

	// A 4-cycle with one chord: exactly two triangles.
	n := 8
	adj := make([][]int64, n)
	for i := range adj {
		adj[i] = make([]int64, n)
	}
	edge := func(i, j int) { adj[i][j], adj[j][i] = 1, 1 }
	edge(0, 1)
	edge(1, 2)
	edge(2, 3)
	edge(3, 0)
	edge(0, 2)

	res := s.Do(ctx, Request{Tenant: "t", Op: OpTriangles, A: adj})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Count != 2 {
		t.Fatalf("triangles = %d, want 2", res.Count)
	}

	// APSP on a weighted path.
	w := make([][]int64, n)
	for i := range w {
		w[i] = make([]int64, n)
		for j := range w[i] {
			if i != j {
				w[i][j] = cc.Inf
			}
		}
	}
	for i := 0; i < n-1; i++ {
		w[i][i+1] = int64(i + 1)
	}
	res = s.Do(ctx, Request{Tenant: "t", Op: OpAPSP, A: w})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := res.Matrix[0][n-1]; got != 1+2+3+4+5+6+7 {
		t.Fatalf("dist[0][%d] = %d, want 28", n-1, got)
	}
	if got := res.Matrix[n-1][0]; !cc.IsInf(got) {
		t.Fatalf("dist[%d][0] = %d, want Inf on the directed path", n-1, got)
	}

	res = s.Do(ctx, Request{Tenant: "t", Op: OpSparseSquare, A: adj})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Matrix[1][3] == 0 {
		t.Fatal("square misses the length-2 path 1→2→3")
	}

	// Repeated graph ops on one size must come from the warm pool.
	if st := s.Pool(); st.Misses != 1 {
		t.Fatalf("pool stats = %+v, want a single session built", st)
	}
}
