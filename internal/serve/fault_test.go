package serve

import (
	"context"
	"errors"
	"sync"
	"testing"

	cc "github.com/algebraic-clique/algclique"
)

// TestPoisonedSessionNeverRepooled reproduces the crash-safety hole this
// suite exists to close: a request whose operation panics on its session
// (an injected untyped panic, standing in for a buggy run) used to kill
// the dispatcher and leave the session eligible for re-pooling. The
// contract now, for every op: the guilty request is answered with
// *SessionPanicError, the requests drained with it are served correctly —
// those behind it on a fresh session — its session alone is discarded,
// never re-pooled, and the dispatcher survives to serve the next batch.
// The last row queues the poison behind the others, so its answer is the
// batch's last and the pool is read the moment it arrives: the session
// must be discarded before the guilty request is answered.
func TestPoisonedSessionNeverRepooled(t *testing.T) {
	const n = 8
	a, b := testMat(n, 1), testMat(n, 2)
	// A directed path 0 → 1 → … → n−1 of unit weights: d(u, v) = v − u
	// for u ≤ v, unreachable otherwise.
	path, dist := make([][]int64, n), make([][]int64, n)
	for u := range path {
		path[u], dist[u] = make([]int64, n), make([]int64, n)
		for v := range path[u] {
			path[u][v], dist[u][v] = cc.Inf, cc.Inf
			if v == u+1 {
				path[u][v] = 1
			}
			if v >= u {
				dist[u][v] = int64(v - u)
			}
		}
	}
	for _, tc := range []struct {
		op   Op
		a, b [][]int64
		want [][]int64
		last bool // queue the poison after the three clean requests
	}{
		{OpMatMul, a, b, naiveMul(a, b), false},
		{OpAPSP, path, nil, dist, false},
		{OpMatMul, a, b, naiveMul(a, b), true},
	} {
		name, poison := string(tc.op), 0
		if tc.last {
			name, poison = name+" poison queued last", 3
		}
		t.Run(name, func(t *testing.T) {
			s, release := heldServer(Config{MaxBatch: 4})
			defer s.Shutdown(context.Background())
			ctx := context.Background()

			var wg sync.WaitGroup
			results := make([]Result, 4)
			var atAnswer PoolStats // the pool as the poison's caller first sees it
			for i := 0; i < 4; i++ {
				if i == poison && tc.last {
					waitAdmitted(t, s, 3)
				}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					req := Request{Tenant: "t", Op: tc.op, A: tc.a, B: tc.b}
					if i == poison {
						// The operation's first flush panics.
						req.Fault = &cc.FaultPlan{Seed: 7, PanicAtFlush: 1}
					}
					results[i] = s.Do(ctx, req)
					if i == poison {
						atAnswer = s.Pool()
					}
				}(i)
			}
			// All four queue behind the held dispatcher and are drained
			// together.
			waitAdmitted(t, s, 4)
			release()
			wg.Wait()

			var spe *SessionPanicError
			if !errors.As(results[poison].Err, &spe) {
				t.Fatalf("poison request err = %v, want *SessionPanicError", results[poison].Err)
			}
			if spe.Op != tc.op {
				t.Fatalf("SessionPanicError.Op = %q, want %q", spe.Op, tc.op)
			}
			for i := 0; i < 4; i++ {
				if i == poison {
					continue
				}
				if results[i].Err != nil {
					t.Fatalf("request %d drained with the poison failed: %v", i, results[i].Err)
				}
				if !matEq(results[i].Matrix, tc.want) {
					t.Fatalf("request %d drained with the poison got a wrong answer", i)
				}
			}

			// One poison, one poisoned session: gone from the pool, not
			// cached — already when the guilty request is answered.
			if atAnswer.Discards != 1 {
				t.Fatalf("pool discards when the poison was answered = %d, want 1: %+v", atAnswer.Discards, atAnswer)
			}
			st := s.Pool()
			if st.Discards != 1 {
				t.Fatalf("pool discards = %d, want 1: %+v", st.Discards, st)
			}
			if int64(st.Idle+st.InUse) != st.Misses-st.Discards {
				t.Fatalf("pool caches %d sessions of %d built with %d discarded — a poisoned session was re-pooled: %+v",
					st.Idle+st.InUse, st.Misses, st.Discards, st)
			}

			// The dispatcher survived: the same queue serves the next
			// request.
			res := s.Do(ctx, Request{Tenant: "t", Op: tc.op, A: tc.a, B: tc.b})
			if res.Err != nil {
				t.Fatalf("request after poisoning failed: %v", res.Err)
			}
			if !matEq(res.Matrix, tc.want) {
				t.Fatal("request after poisoning got a wrong answer")
			}

			ts := s.Tenants()["t"]
			if ts.Admitted != 5 || ts.Completed != 4 || ts.Failed != 1 {
				t.Fatalf("tenant ledger = %+v, want 5 admitted / 4 completed / 1 failed", ts)
			}
		})
	}
}

// TestServeChaosCertifiedRequests drives faulted, certified requests
// through the service plane: every answer is either bit-correct (the
// session's retry budget recovered it, certification vouching) or a typed
// fault-plane error — never a silently wrong product, and no admitted
// request is lost.
func TestServeChaosCertifiedRequests(t *testing.T) {
	// Held until all twelve are queued: three full batches of four.
	s, release := heldServer(Config{MaxBatch: 4})
	defer s.Shutdown(context.Background())
	ctx := context.Background()

	a, b := testMat(8, 3), testMat(8, 4)
	want := naiveMul(a, b)

	var wg sync.WaitGroup
	results := make([]Result, 12)
	for i := 0; i < len(results); i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = s.Do(ctx, Request{
				Tenant:  "chaos",
				Op:      OpMatMul,
				A:       a,
				B:       b,
				Fault:   &cc.FaultPlan{Seed: uint64(i + 1), CorruptProb: 0.01, DropProb: 0.005, MaxFaults: 6},
				Certify: 10,
			})
		}(i)
	}
	waitAdmitted(t, s, int64(len(results)))
	release()
	wg.Wait()

	recovered := 0
	for i, res := range results {
		if res.Err != nil {
			var fe *cc.FaultError
			var ce *cc.CertificationError
			if !errors.As(res.Err, &fe) && !errors.As(res.Err, &ce) {
				t.Fatalf("request %d: untyped chaos error %v", i, res.Err)
			}
			continue
		}
		if !matEq(res.Matrix, want) {
			t.Fatalf("request %d: chaos produced a silently wrong product", i)
		}
		if !res.Stats.Certified {
			t.Fatalf("request %d: returned product was not certified", i)
		}
		recovered++
	}
	if recovered == 0 {
		t.Fatal("no chaos request recovered; the plans are too hot for the test to mean anything")
	}

	ts := s.Tenants()["chaos"]
	if ts.Completed+ts.Failed != int64(len(results)) {
		t.Fatalf("ledger lost requests: %+v of %d", ts, len(results))
	}
}

// TestPoolDiscard exercises the pool's discard path directly: the session
// leaves the accounting entirely and the footprint estimate returns to
// its pre-checkout level.
func TestPoolDiscard(t *testing.T) {
	p := NewPool(0)
	defer p.Close()

	sess, hit, err := p.Get(8)
	if err != nil || hit {
		t.Fatalf("Get = (%v, %v), want a fresh session", hit, err)
	}
	p.Discard(sess)
	st := p.Stats()
	if st.Discards != 1 || st.Idle != 0 || st.InUse != 0 {
		t.Fatalf("after Discard: %+v, want 1 discard and an empty pool", st)
	}
	if st.FootprintBytes != 0 {
		t.Fatalf("footprint = %d after discarding the only session", st.FootprintBytes)
	}

	// Discarding a session the pool does not know is a safe no-op on the
	// accounting (the session is still closed).
	other, _ := cc.NewClique(4)
	p.Discard(other)
	if st := p.Stats(); st.Discards != 1 {
		t.Fatalf("unknown-session Discard changed the ledger: %+v", st)
	}

	// A Put after Discard must not resurrect the entry.
	p.Put(sess)
	if st := p.Stats(); st.Idle != 0 {
		t.Fatalf("Put after Discard re-pooled the session: %+v", st)
	}
}

// mod2 reduces a test matrix to 0/1 entries for the Boolean ops.
func mod2(m [][]int64) [][]int64 {
	out := make([][]int64, len(m))
	for i, row := range m {
		out[i] = make([]int64, len(row))
		for j, v := range row {
			out[i][j] = v % 2
		}
	}
	return out
}
