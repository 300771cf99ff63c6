package algclique_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/clique"
)

func sessionTestMat(n int, seed int64) cc.Mat {
	m := make(cc.Mat, n)
	x := seed
	for i := range m {
		m[i] = make([]int64, n)
		for j := range m[i] {
			x = (x*6364136223846793005 + 1442695040888963407) % 97
			m[i][j] = x % 5
		}
	}
	return m
}

// Two sequential operations on one session must give results identical to
// the same operations each on a fresh session.
func TestSessionReuseIdenticalResults(t *testing.T) {
	const n = 16
	a, b := sessionTestMat(n, 1), sessionTestMat(n, 2)

	want1, ws1, err := openSession(t, n).MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want2, _, err := openSession(t, n).MatMul(b, a)
	if err != nil {
		t.Fatal(err)
	}

	sess, err := cc.NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	got1, gs1, err := sess.MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got2, _, err := sess.MatMul(b, a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got1, want1) || !reflect.DeepEqual(got2, want2) {
		t.Fatal("reused-session results differ from fresh-session results")
	}
	if gs1.Rounds != ws1.Rounds || gs1.Words != ws1.Words || gs1.N != ws1.N {
		t.Errorf("reused-session stats %+v differ from fresh-session stats %+v", gs1, ws1)
	}
	// The same holds for graph algorithms sharing the session.
	g := cc.GNP(n, 0.4, false, 3)
	wantTri, _, err := openSession(t, n).CountTriangles(g)
	if err != nil {
		t.Fatal(err)
	}
	gotTri, _, err := sess.CountTriangles(g)
	if err != nil {
		t.Fatal(err)
	}
	if gotTri != wantTri {
		t.Errorf("reused-session triangles = %d, fresh session = %d", gotTri, wantTri)
	}
}

// An operation on a warm session must allocate strictly less than
// NewClique, the same operation and Close: the network, engine plan, and
// padded operand buffers are reused instead of rebuilt. Workers are pinned
// to 1 so the measurement is deterministic.
func TestSessionFewerAllocations(t *testing.T) {
	const n = 16
	a, b := sessionTestMat(n, 4), sessionTestMat(n, 5)

	fresh := testing.AllocsPerRun(10, func() {
		s, err := cc.NewClique(n, cc.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := s.MatMul(a, b); err != nil {
			t.Fatal(err)
		}
		s.Close()
	})

	sess, err := cc.NewClique(n, cc.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	inSession := testing.AllocsPerRun(10, func() {
		if _, _, err := sess.MatMul(a, b); err != nil {
			t.Fatal(err)
		}
	})
	if inSession >= fresh {
		t.Errorf("warm-session MatMul allocates %.0f allocs/op, a fresh session %.0f — the warm session must be strictly cheaper", inSession, fresh)
	}
	t.Logf("allocs/op: fresh session %.0f, warm session %.0f", fresh, inSession)
}

// cancelAfterCalls implements context.Context with an Err that flips to
// Canceled after a fixed number of polls, so cancellation hits
// deterministically mid-simulation.
type cancelAfterCalls struct {
	context.Context
	remaining int
}

func (c *cancelAfterCalls) Err() error {
	if c.remaining <= 0 {
		return context.Canceled
	}
	c.remaining--
	return nil
}

func TestSessionCancellation(t *testing.T) {
	g := cc.RandomConnectedWeighted(27, 0.3, 20, true, 7)
	sess, err := cc.NewClique(27)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	// A context cancelled mid-simulation surfaces as context.Canceled.
	ctx := &cancelAfterCalls{Context: context.Background(), remaining: 3}
	_, _, err = sess.APSP(g, cc.WithContext(ctx))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	var canc *clique.CanceledError
	if !errors.As(err, &canc) {
		t.Fatalf("err = %v, want *clique.CanceledError", err)
	}

	// An already-cancelled context aborts at the first round boundary.
	pre, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := sess.APSP(g, cc.WithContext(pre)); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled: err = %v, want context.Canceled", err)
	}

	// The session stays usable after a cancelled operation.
	res, _, err := sess.APSP(g)
	if err != nil {
		t.Fatalf("session unusable after cancellation: %v", err)
	}
	if err := cc.ValidateRouting(g, res); err != nil {
		t.Fatalf("post-cancellation result invalid: %v", err)
	}
}

func TestSessionRoundLimitPerCall(t *testing.T) {
	g := cc.RandomConnectedWeighted(27, 0.3, 20, true, 1)
	sess, err := cc.NewClique(27)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	_, _, err = sess.APSP(g, cc.WithRoundLimit(10))
	var lim *clique.RoundLimitError
	if !errors.As(err, &lim) {
		t.Fatalf("err = %v, want *clique.RoundLimitError", err)
	}
	// The limit is per call: the next call runs without it.
	if _, _, err := sess.APSP(g); err != nil {
		t.Fatalf("round limit leaked into the next call: %v", err)
	}
}

// TestSessionBatchedDistanceProducts runs a batch of distance products as
// consecutive calls on one session: each product equals a fresh session's,
// and the session ledger holds one op per call with their rounds summed.
func TestSessionBatchedDistanceProducts(t *testing.T) {
	const n, k = 20, 4
	sess, err := cc.NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var wantRounds int64
	for i := 0; i < k; i++ {
		a, b := sessionTestMat(n, int64(10+i)), sessionTestMat(n, int64(20+i))
		got, st, err := sess.DistanceProduct(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt, err := openSession(t, n).DistanceProduct(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("product %d on the shared session differs from a fresh session's", i)
		}
		if st.Rounds != wantSt.Rounds || st.Words != wantSt.Words {
			t.Errorf("product %d: %d rounds / %d words on the shared session, %d / %d on a fresh one",
				i, st.Rounds, st.Words, wantSt.Rounds, wantSt.Words)
		}
		wantRounds += wantSt.Rounds
	}
	ledger := sess.Stats()
	if len(ledger.Ops) != k {
		t.Fatalf("ledger has %d ops, want %d", len(ledger.Ops), k)
	}
	if ledger.Rounds != wantRounds {
		t.Errorf("ledger rounds = %d, want %d", ledger.Rounds, wantRounds)
	}
}

// TestBatchWrongSizeItem: a mis-sized call in the middle of a run of calls
// on one session is refused without touching the result returned before
// it, and the session serves the next call.
func TestBatchWrongSizeItem(t *testing.T) {
	const n = 16
	a, b := sessionTestMat(n, 100), sessionTestMat(n, 101)
	sess, err := cc.NewClique(n, cc.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	first, _, err := sess.MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	kept := make(cc.Mat, n)
	for i := range first {
		kept[i] = append([]int64(nil), first[i]...)
	}
	bad := sessionTestMat(n-1, 9)
	if _, _, err := sess.MatMul(bad, bad); err == nil {
		t.Fatal("mis-sized call accepted")
	}
	if !reflect.DeepEqual(first, kept) {
		t.Fatal("the mis-sized call overwrote the result returned before it")
	}
	again, _, err := sess.MatMul(a, b)
	if err != nil {
		t.Fatalf("session unusable after the mis-sized call: %v", err)
	}
	if !reflect.DeepEqual(again, kept) {
		t.Fatal("the call after the mis-sized one returned a wrong product")
	}
}

func TestSessionLedger(t *testing.T) {
	const n = 16
	sess, err := cc.NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	g := cc.GNP(n, 0.4, false, 9)
	if _, _, err := sess.CountTriangles(g); err != nil {
		t.Fatal(err)
	}
	a := sessionTestMat(n, 3)
	if _, _, err := sess.MatMul(a, a); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.N != n {
		t.Errorf("ledger N = %d, want %d", st.N, n)
	}
	if len(st.Ops) != 2 || st.Ops[0].Op != "CountTriangles" || st.Ops[1].Op != "MatMul" {
		t.Fatalf("ledger ops = %+v, want [CountTriangles MatMul]", st.Ops)
	}
	var sum int64
	for _, op := range st.Ops {
		if len(op.Phases) == 0 {
			t.Errorf("op %s has no phase breakdown", op.Op)
		}
		sum += op.Rounds
	}
	if st.Rounds != sum || st.Rounds == 0 {
		t.Errorf("cumulative rounds %d != per-op sum %d (or zero)", st.Rounds, sum)
	}
	sess.ResetStats()
	if st := sess.Stats(); len(st.Ops) != 0 || st.Rounds != 0 || st.Words != 0 {
		t.Errorf("ResetStats left %+v", st)
	}
}

// The ledger snapshot must be insulated from callers: mutating a returned
// snapshot (or a returned operation's Stats) cannot corrupt the session.
func TestSessionLedgerSnapshotIsolated(t *testing.T) {
	const n = 16
	sess, err := cc.NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	a := sessionTestMat(n, 3)
	_, opStats, err := sess.MatMul(a, a)
	if err != nil {
		t.Fatal(err)
	}
	want := sess.Stats()
	opStats.Phases[0].Rounds = -999 // the caller owns its Stats value
	snap := sess.Stats()
	snap.Ops[0].Phases[0].Rounds = -111
	snap.Ops[0].Rounds = -111
	got := sess.Stats()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ledger corrupted through a snapshot: %+v != %+v", got, want)
	}
}

// The buffer pool must not grow with operation count: engines allocate
// results outside the pool and recycle them into it, so an uncapped pool
// would retain one matrix per operation forever. Measured as live-heap
// growth across many operations on one session.
func TestSessionPoolBounded(t *testing.T) {
	const n, ops = 32, 300
	sess, err := cc.NewClique(n, cc.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	a := sessionTestMat(n, 4)
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	for i := 0; i < 10; i++ { // warm the pool, networks, and plan caches
		if _, _, err := sess.DistanceProduct(a, a); err != nil {
			t.Fatal(err)
		}
	}
	before := heap()
	for i := 0; i < ops; i++ {
		if _, _, err := sess.DistanceProduct(a, a); err != nil {
			t.Fatal(err)
		}
	}
	after := heap()
	// An unbounded pool would retain ≥ ops n×n matrices (~8.5 KB each at
	// n=32, ≈ 2.5 MB); a bounded pool's steady state stays within noise.
	// The ledger legitimately grows (~100 B/op), so allow 1 MB.
	if growth := int64(after) - int64(before); growth > 1<<20 {
		t.Errorf("live heap grew %d bytes over %d ops — buffer pool is retaining per-op garbage", growth, ops)
	}
}

func TestSessionClosedAndSizeMismatch(t *testing.T) {
	sess, err := cc.NewClique(16)
	if err != nil {
		t.Fatal(err)
	}
	a := sessionTestMat(8, 1)
	if _, _, err := sess.MatMul(a, a); err == nil {
		t.Error("8×8 operands on an n=16 session must fail")
	}
	if err := sess.Close(); err != nil {
		t.Fatal(err)
	}
	if err := sess.Close(); err != nil {
		t.Fatalf("Close must be idempotent, got %v", err)
	}
	b := sessionTestMat(16, 1)
	if _, _, err := sess.MatMul(b, b); !errors.Is(err, cc.ErrSessionClosed) {
		t.Errorf("err = %v, want ErrSessionClosed", err)
	}
	if _, err := cc.NewClique(0); err == nil {
		t.Error("NewClique(0) must fail")
	}
}

// Sessions serialise concurrent callers; results must match the
// single-threaded ones. This is the test the -race CI job gates.
func TestSessionConcurrentUse(t *testing.T) {
	const n = 16
	sess, err := cc.NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	g := cc.GNP(n, 0.4, false, 11)
	wantTri, _, err := openSession(t, n).CountTriangles(g)
	if err != nil {
		t.Fatal(err)
	}
	a := sessionTestMat(n, 6)
	wantProd, _, err := openSession(t, n).MatMul(a, a)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			tri, _, err := sess.CountTriangles(g)
			if err == nil && tri != wantTri {
				err = fmt.Errorf("triangles = %d, want %d", tri, wantTri)
			}
			if err != nil {
				errc <- err
			}
		}()
		go func() {
			defer wg.Done()
			p, _, err := sess.MatMul(a, a)
			if err == nil && !reflect.DeepEqual(p, wantProd) {
				err = fmt.Errorf("concurrent MatMul result differs")
			}
			if err != nil {
				errc <- err
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if ops := len(sess.Stats().Ops); ops != 8 {
		t.Errorf("ledger recorded %d ops, want 8", ops)
	}
}

// MatMulBroadcast rides the same harness as every other entry point: its
// ledger is pinned exactly, and round limits and cancellation apply.
func TestBroadcastThroughConfigPath(t *testing.T) {
	const n = 8
	a, b := sessionTestMat(n, 1), sessionTestMat(n, 2)
	want, _, err := openSession(t, n, cc.WithEngine(cc.Naive)).MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	s := openSession(t, n)
	p, stats, err := s.MatMulBroadcast(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatal("broadcast product differs from unicast product")
	}
	// Every node broadcasts its two rows, one word per round: 2n rounds and
	// 2n·n·(n−1) words, all in the publish phase.
	wantPhases := []cc.PhaseStat{
		{Name: "bcastmm/publish", Rounds: 2 * n, Words: 2 * n * n * (n - 1)},
		{Name: "bcastmm/multiply"},
	}
	if stats.N != n || stats.Rounds != 16 || stats.Words != 896 || !reflect.DeepEqual(stats.Phases, wantPhases) {
		t.Errorf("broadcast stats = %+v, want N=%d, 16 rounds, 896 words, phases %+v", stats, n, wantPhases)
	}
	_, _, err = s.MatMulBroadcast(a, b, cc.WithRoundLimit(3))
	var lim *clique.RoundLimitError
	if !errors.As(err, &lim) {
		t.Errorf("broadcast round limit: err = %v, want *clique.RoundLimitError", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err = s.MatMulBroadcast(a, b, cc.WithContext(ctx))
	var canc *clique.CanceledError
	if !errors.As(err, &canc) || !errors.Is(err, context.Canceled) {
		t.Errorf("broadcast under a cancelled context: err = %v, want *clique.CanceledError", err)
	}
}

// The two option scopes meet in one operation: the engine on the session,
// the seed and trial count on the call.
func TestOptionScopesInteroperate(t *testing.T) {
	g := cc.Petersen()
	sess, err := cc.NewClique(g.N(), cc.WithEngine(cc.Fast))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	v, ok, _, err := sess.Girth(g, cc.WithSeed(2), cc.WithColourings(150))
	if err != nil || !ok || v != 5 {
		t.Fatalf("session girth = %d, %v, %v; want 5", v, ok, err)
	}
}
