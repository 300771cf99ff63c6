package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/serve"
)

// The serve experiment load-tests the multi-tenant service plane: it fires
// thousands of concurrent mixed queries (ring and boolean products,
// min-plus products, APSP, triangle counts, sparse squares) from simulated
// tenants at an in-process serve.Server and passes or fails on
//
//   - correctness: every response must match a direct single-session call
//     on the same inputs;
//   - zero lost requests: every admitted request is answered, including
//     through the graceful-shutdown wave;
//   - warm-pool hit-rate ≥ 90% at steady state.
//
// Nothing about the run is exact for a seed — how the goroutines interleave
// decides the batches, the sessions built and who the drain turns away — so
// it has no ledger; its latency and allocations per request are the
// yardstick's serve_mixed workload (bench/).
//
// The printed avg batch is what the dispatchers found queued when they
// came free — about 6.5–8 for a burst of 2 000 on a 2-vCPU guest, where
// the campaign takes 1.1–1.4 s.

// serveLCG is the bench's deterministic input generator.
type serveLCG uint64

func (r *serveLCG) next() uint64 {
	*r = *r*2862933555777941757 + 3037000493
	return uint64(*r)
}

// serveInputs holds one size's pregenerated operands and their reference
// results from a direct session.
type serveInputs struct {
	intA, intB   [][]int64 // small non-negative ring entries
	wA, wB       [][]int64 // min-plus operands with Inf holes
	adj          [][]int64 // symmetric loop-free 0/1 adjacency
	refMul       [][]int64
	refBool      [][]int64
	refDist      [][]int64
	refAPSP      [][]int64
	refSquare    [][]int64
	refTriangles int64
}

func serveGenInputs(n int, rng *serveLCG) *serveInputs {
	mat := func(mod uint64) [][]int64 {
		m := make([][]int64, n)
		for i := range m {
			m[i] = make([]int64, n)
			for j := range m[i] {
				m[i][j] = int64(rng.next() % mod)
			}
		}
		return m
	}
	in := &serveInputs{intA: mat(7), intB: mat(7)}
	sparseW := func() [][]int64 {
		m := make([][]int64, n)
		for i := range m {
			m[i] = make([]int64, n)
			for j := range m[i] {
				if rng.next()%4 == 0 {
					m[i][j] = int64(rng.next() % 32)
				} else {
					m[i][j] = cc.Inf
				}
			}
		}
		return m
	}
	in.wA, in.wB = sparseW(), sparseW()
	in.adj = make([][]int64, n)
	for i := range in.adj {
		in.adj[i] = make([]int64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if rng.next()%4 == 0 {
				in.adj[i][j], in.adj[j][i] = 1, 1
			}
		}
	}
	return in
}

// serveReference fills in the reference results with direct, unserved
// session calls — the bench then checks the service plane returns exactly
// these through every batching and pooling path.
func (in *serveInputs) serveReference(n int) {
	sess, err := cc.NewClique(n)
	check(err)
	defer sess.Close()
	var e error
	in.refMul, _, e = sess.MatMul(in.intA, in.intB)
	check(e)
	in.refBool, _, e = sess.MatMulBool(in.adj, in.adj)
	check(e)
	in.refDist, _, e = sess.DistanceProduct(in.wA, in.wB)
	check(e)
	w := cc.NewWeighted(n, true)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && !cc.IsInf(in.wA[i][j]) && in.wA[i][j] >= 0 {
				w.SetEdge(i, j, in.wA[i][j])
			}
		}
	}
	apsp, _, e := sess.APSP(w)
	check(e)
	in.refAPSP = apsp.Dist
	g := cc.NewGraph(n, false)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if in.adj[i][j] != 0 {
				g.AddEdge(i, j)
			}
		}
	}
	in.refTriangles, _, e = sess.CountTriangles(g)
	check(e)
	in.refSquare, _, e = sess.SquareAdjacencySparse(g)
	check(e)
}

// request builds one served request for op together with its expected
// matrix (or count) from the references above. APSP reuses wA: it is
// generated with non-negative finite weights and Inf holes, exactly what
// the service validates and what the reference graph was built from.
func (in *serveInputs) request(tenant string, op serve.Op) (serve.Request, [][]int64, int64) {
	switch op {
	case serve.OpMatMul:
		return serve.Request{Tenant: tenant, Op: op, A: in.intA, B: in.intB}, in.refMul, 0
	case serve.OpMatMulBool:
		return serve.Request{Tenant: tenant, Op: op, A: in.adj, B: in.adj}, in.refBool, 0
	case serve.OpDistanceProduct:
		return serve.Request{Tenant: tenant, Op: op, A: in.wA, B: in.wB}, in.refDist, 0
	case serve.OpAPSP:
		return serve.Request{Tenant: tenant, Op: op, A: in.wA}, in.refAPSP, 0
	case serve.OpTriangles:
		return serve.Request{Tenant: tenant, Op: op, A: in.adj}, nil, in.refTriangles
	default: // sparse-square
		return serve.Request{Tenant: tenant, Op: op, A: in.adj}, in.refSquare, 0
	}
}

// serveFire submits one request with bounded retries under backpressure.
func serveFire(srv *serve.Server, req serve.Request, retried *int64) serve.Result {
	for attempt := 0; ; attempt++ {
		res := srv.Do(context.Background(), req)
		var overload *serve.OverloadError
		if errors.As(res.Err, &overload) && attempt < 10 {
			atomic.AddInt64(retried, 1)
			pause := overload.RetryAfter
			if pause > 20*time.Millisecond {
				pause = 20 * time.Millisecond
			}
			time.Sleep(pause)
			continue
		}
		return res
	}
}

func serveBench() {
	sizes := []int{12, 16, 24}
	tenants := []string{"acme", "globex", "initech", "umbrella", "wayne", "stark"}
	opsMix := []serve.Op{
		serve.OpMatMul, serve.OpMatMul, serve.OpMatMulBool,
		serve.OpDistanceProduct, serve.OpDistanceProduct,
		serve.OpAPSP, serve.OpTriangles, serve.OpSparseSquare,
	}
	const total = 2000
	const drainSent = 400

	fmt.Printf("   generating inputs and references for sizes %v ...\n", sizes)
	rng := serveLCG(0x5eed_c11e)
	inputs := map[int]*serveInputs{}
	for _, n := range sizes {
		inputs[n] = serveGenInputs(n, &rng)
		inputs[n].serveReference(n)
	}

	srv := serve.New(serve.Config{QueueCap: 512, MaxBatch: 16})

	// Warm the pool and the dispatchers: one request per (size, op).
	for _, n := range sizes {
		for _, op := range []serve.Op{serve.OpMatMul, serve.OpMatMulBool, serve.OpDistanceProduct, serve.OpAPSP, serve.OpTriangles, serve.OpSparseSquare} {
			req, _, _ := inputs[n].request(tenants[0], op)
			if res := srv.Do(context.Background(), req); res.Err != nil {
				check(fmt.Errorf("serve warmup %s/n=%d: %w", op, n, res.Err))
			}
		}
	}
	warm := srv.Pool()

	// The wave runs waves times, so the hit-rate floor reads the pool at
	// steady state rather than while it grows to the first burst.
	const waves = 5
	var retried, mismatches, failed int64
	runWave := func() {
		var wg sync.WaitGroup
		startc := make(chan struct{})
		for i := 0; i < total; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				n := sizes[i%len(sizes)]
				op := opsMix[i%len(opsMix)]
				req, wantMat, wantCount := inputs[n].request(tenants[i%len(tenants)], op)
				<-startc
				res := serveFire(srv, req, &retried)
				if res.Err != nil {
					atomic.AddInt64(&failed, 1)
					return
				}
				ok := true
				if wantMat != nil {
					ok = slices.EqualFunc(res.Matrix, wantMat, slices.Equal[[]int64])
				} else {
					ok = res.Count == wantCount
				}
				if !ok {
					atomic.AddInt64(&mismatches, 1)
				}
			}(i)
		}
		close(startc)
		wg.Wait()
	}

	fmt.Printf("   firing %d concurrent queries across %d tenants, %d waves ...\n", total, len(tenants), waves)
	for w := 0; w < waves; w++ {
		runWave()
	}

	// Graceful-shutdown wave: submit another burst and drain mid-flight.
	fmt.Printf("   graceful-shutdown wave: %d queries racing Shutdown ...\n", drainSent)
	var drainServed, drainTurned, drainLost int64
	var dwg sync.WaitGroup
	for i := 0; i < drainSent; i++ {
		dwg.Add(1)
		go func(i int) {
			defer dwg.Done()
			n := sizes[i%len(sizes)]
			req, _, _ := inputs[n].request(tenants[i%len(tenants)], opsMix[i%len(opsMix)])
			res := srv.Do(context.Background(), req)
			var overload *serve.OverloadError
			switch {
			case res.Err == nil:
				atomic.AddInt64(&drainServed, 1)
			case errors.Is(res.Err, serve.ErrDraining) || errors.As(res.Err, &overload):
				atomic.AddInt64(&drainTurned, 1)
			default:
				atomic.AddInt64(&drainLost, 1)
			}
		}(i)
	}
	time.Sleep(2 * time.Millisecond)
	drainCtx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	check(srv.Shutdown(drainCtx))
	dwg.Wait()

	var admitted, completed, terminalFailed, expired int64
	for _, ts := range srv.Tenants() {
		admitted += ts.Admitted
		completed += ts.Completed
		terminalFailed += ts.Failed
		expired += ts.Expired
	}
	lostAdmitted := admitted - completed - terminalFailed - expired

	pool := srv.Pool()
	batches := pool.Hits + pool.Misses

	var fails []string
	if mismatches > 0 {
		fails = append(fails, fmt.Sprintf("%d responses differ from direct session results", mismatches))
	}
	if failed > 0 {
		fails = append(fails, fmt.Sprintf("%d load-wave requests failed outright", failed))
	}
	if drainLost > 0 {
		fails = append(fails, fmt.Sprintf("%d shutdown-wave requests died with unexpected errors", drainLost))
	}
	if lostAdmitted != 0 || terminalFailed != 0 || expired != 0 {
		fails = append(fails, fmt.Sprintf("admitted-request accounting: admitted %d, completed %d, failed %d, expired %d",
			admitted, completed, terminalFailed, expired))
	}
	if pool.HitRate() < 0.90 {
		fails = append(fails, fmt.Sprintf("pool hit-rate %.3f below the 0.90 floor (%d built, warm baseline %d)",
			pool.HitRate(), pool.Misses, warm.Misses))
	}
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "   REGRESSION:", f)
		}
		check(fmt.Errorf("serve: %d service-plane regression(s)", len(fails)))
	}

	fmt.Printf("   served %d+%d requests, %d retried under backpressure, 0 lost; drain turned %d away\n",
		completed-drainServed, drainServed, retried, drainTurned)
	fmt.Printf("   pool: hit-rate %.3f (%d sessions built), avg batch %.1f across %d batches\n",
		pool.HitRate(), pool.Misses, float64(completed)/float64(batches), batches)
}
