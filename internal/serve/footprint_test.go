package serve

import (
	"runtime"
	"testing"

	cc "github.com/algebraic-clique/algclique"
)

// liveHeapBytes returns HeapAlloc after two collections (the second empties
// the sync.Pool victim caches the first one filled).
func liveHeapBytes() int64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// serveEachOpOnce runs every op the service dispatches once on sess, on
// inputs of the shape the load generators send: small random entries, a
// connected weighted digraph, and a sparse undirected graph (the sparse
// square wants Σ deg² < 2n²).
func serveEachOpOnce(t *testing.T, sess *cc.Clique, n int) {
	t.Helper()
	a := make(cc.Mat, n)
	adj := make(cc.Mat, n)
	x := int64(n)
	for i := range a {
		a[i], adj[i] = make([]int64, n), make([]int64, n)
		for j := range a[i] {
			x = (x*6364136223846793005 + 1442695040888963407) % 1009
			a[i][j] = x % 7
		}
	}
	for i := range adj { // a ring with a chord per node: degree ≤ 4
		for _, j := range []int{(i + 1) % n, (i + 5) % n} {
			if i != j {
				adj[i][j], adj[j][i] = 1, 1
			}
		}
	}
	if _, _, err := sess.MatMul(a, a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.MatMulBool(adj, adj); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.DistanceProduct(a, a); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.APSP(cc.RandomConnectedWeighted(n, 0.3, 50, true, uint64(n))); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.CountTriangles(graphOf(adj)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := sess.SquareAdjacencySparse(graphOf(adj)); err != nil {
		t.Fatal(err)
	}
}

// TestSessionFootprintEstimate holds the pool's two estimates to what a
// session measures: sessionBytes against the live heap of a session that
// has served each op once, trimmedBytes against what Trim leaves of it. The
// estimates order trims and evictions under the budget, so each must be
// within a factor of two of the measurement, at every size.
//
// The routing layer memoises each oblivious exchange pattern's charge for
// the process (routing.ObliviousCosts), as the plan cache memoises plans:
// no session owns that memory and Trim cannot release it, so a throwaway
// session serves each op first and the measurement starts after it.
func TestSessionFootprintEstimate(t *testing.T) {
	for _, n := range []int{16, 32, 64, 144} {
		warmup, err := cc.NewClique(n, cc.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		serveEachOpOnce(t, warmup, n)
		warmup.Close()
		base := liveHeapBytes()
		sess, err := cc.NewClique(n, cc.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		serveEachOpOnce(t, sess, n)
		sess.ResetStats()
		warm := liveHeapBytes() - base
		sess.Trim()
		trimmed := liveHeapBytes() - base
		t.Logf("n=%3d warm %9d B (estimate %9d)  trimmed %7d B (estimate %7d)",
			n, warm, sessionBytes(n), trimmed, trimmedBytes(n))
		sess.Close()
		if est := sessionBytes(n); est > 2*warm || 2*est < warm {
			t.Errorf("n=%d: sessionBytes = %d, a session that served each op once holds %d", n, est, warm)
		}
		// A few KB either way is the runtime's own bookkeeping at this
		// scale, so the residual also passes within 16 KiB.
		if est := trimmedBytes(n); (est > 2*trimmed || 2*est < trimmed) && max(est-trimmed, trimmed-est) > 16<<10 {
			t.Errorf("n=%d: trimmedBytes = %d, Trim left %d", n, est, trimmed)
		}
	}
}
