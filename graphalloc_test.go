package algclique_test

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	cc "github.com/algebraic-clique/algclique"
)

// graphOp is one of the nine operations of the yardstick's graph_pipeline
// workload (bench/library.go), on that workload's inputs.
type graphOp struct {
	name string
	// run makes the call and returns its answer in a comparable form.
	run func(s *cc.Clique, opts ...cc.CallOption) (any, cc.Stats, error)
}

// graphPipelineOps returns the nine graph_pipeline operations at size n:
// a weighted digraph, an undirected GNP at average degree ≈ 14 and a
// directed one at a third of that, as the yardstick draws them.
func graphPipelineOps(n int, seed uint64) []graphOp {
	p := min(0.5, 14/float64(n))
	wg := cc.RandomConnectedWeighted(n, p, 100, true, seed)
	g := cc.GNP(n, p, false, seed+1)
	gd := cc.GNP(n, p/3, true, seed+2)
	girth := func(g *cc.Graph) func(s *cc.Clique, opts ...cc.CallOption) (any, cc.Stats, error) {
		return func(s *cc.Clique, opts ...cc.CallOption) (any, cc.Stats, error) {
			v, ok, st, err := s.Girth(g, opts...)
			return [2]any{v, ok}, st, err
		}
	}
	return []graphOp{
		{"apsp", func(s *cc.Clique, opts ...cc.CallOption) (any, cc.Stats, error) { return s.APSP(wg, opts...) }},
		{"apsp_unweighted", func(s *cc.Clique, opts ...cc.CallOption) (any, cc.Stats, error) {
			return s.APSPUnweighted(g, opts...)
		}},
		{"closure", func(s *cc.Clique, opts ...cc.CallOption) (any, cc.Stats, error) {
			return s.TransitiveClosure(gd, opts...)
		}},
		{"triangles", func(s *cc.Clique, opts ...cc.CallOption) (any, cc.Stats, error) {
			return s.CountTriangles(g, opts...)
		}},
		{"c4count", func(s *cc.Clique, opts ...cc.CallOption) (any, cc.Stats, error) {
			return s.CountFourCycles(g, opts...)
		}},
		{"c5count", func(s *cc.Clique, opts ...cc.CallOption) (any, cc.Stats, error) {
			return s.CountFiveCycles(g, opts...)
		}},
		{"c4detect", func(s *cc.Clique, opts ...cc.CallOption) (any, cc.Stats, error) {
			return s.DetectFourCycle(g, opts...)
		}},
		{"girth", girth(g)},
		{"girth_directed", girth(gd)},
	}
}

// randSquare draws a dense n×n product operand with entries in [0, 100].
func randSquare(n int, seed uint64) cc.Mat {
	g := cc.RandomWeighted(n, 0.99, 100, true, seed)
	out := make(cc.Mat, n)
	for i := range out {
		out[i] = make([]int64, n)
		for j := range out[i] {
			if w := g.Weight(i, j); !cc.IsInf(w) {
				out[i][j] = w
			}
		}
	}
	return out
}

// liveHeap returns HeapAlloc and HeapObjects after a collection.
func liveHeap() (bytes, objects uint64) {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.HeapObjects
}

// raceDetector reports whether the test binary was built with -race, under
// which sync.Pool drops a quarter of its Puts at random and the allocation
// count of a pool-backed kernel is a coin toss.
func raceDetector() bool {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" {
				return s.Value == "true"
			}
		}
	}
	return false
}

// TestWarmGraphOpAllocs pins what a warm session allocates per graph
// operation at the yardstick's size. Every product of every reduction runs
// on the network's one working set and dead intermediates return to its
// free list, so a warm call allocates its answer, its per-call vectors and
// little else; each budget is about twice the measured figure and one to
// two orders of magnitude below what the reductions allocated when each
// opened with a working set of its own (triangles: 75 105).
//
// The second half is the other side of the same coin: a working set that
// outlives its operation must still go when the session is trimmed (it
// lives in the network's engine-state slot, which Network.Trim drops).
//
// The products the reductions chain come first, at the sizes whose schedule
// cmd/ccbench matmul pins (BENCH_matmul.json): a warm session product
// allocates a few dozen objects whatever n is, and on one worker the count
// does not depend on the machine (two workers add 12 to 20).
func TestWarmGraphOpAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("n = 144 session warm-up")
	}
	products := []struct {
		name   string
		mul    func(s *cc.Clique, a, b cc.Mat, opts ...cc.CallOption) (cc.Mat, cc.Stats, error)
		budget [3]float64 // at n = 27, 64, 100: about twice the measured figure
	}{
		{"matmul", (*cc.Clique).MatMul, [3]float64{50, 70, 75}},                    // 24 / 34 / 36
		{"distance_product", (*cc.Clique).DistanceProduct, [3]float64{50, 50, 55}}, // 24 / 25 / 26
		{"matmul_bool", (*cc.Clique).MatMulBool, [3]float64{55, 70, 75}},           // 27 / 34 / 36
	}
	race := raceDetector()
	for i, n := range []int{27, 64, 100} {
		a, b := randSquare(n, 71), randSquare(n, 72)
		sess, err := cc.NewClique(n, cc.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range products {
			if p.name == "matmul_bool" && race {
				continue // its local kernel draws scratch from a sync.Pool
			}
			mul := func() {
				if _, _, err := p.mul(sess, a, b); err != nil {
					t.Fatalf("%s n=%d: %v", p.name, n, err)
				}
			}
			for warm := 0; warm < 3; warm++ { // buffers reach their high-water marks over the first calls
				mul()
			}
			got := testing.AllocsPerRun(5, mul)
			t.Logf("%-16s n=%-3d %4.0f allocs/op (budget %.0f)", p.name, n, got, p.budget[i])
			if got > p.budget[i] {
				t.Errorf("%s n=%d: %.0f allocs/op on a warm session, budget %.0f", p.name, n, got, p.budget[i])
			}
		}
		sess.Close()
	}
	const n = 144
	// Measured → budget; in brackets what the same call allocated while
	// every reduction built its own working set. Undirected girth never
	// did (it gathers this graph and runs the local reference), so its
	// budget only pins the status quo; closure's squarings always ran on the
	// session's working set and gain from results drawn off the free list
	// and from message matrices that keep their roles between products.
	budget := map[string]float64{
		"apsp":            400,  // 177 [11 712]
		"apsp_unweighted": 400,  // 180 [76 996]
		"closure":         500,  // 238 [1 695]
		"triangles":       100,  // 39 [75 105]
		"c4count":         100,  // 39 [75 105]
		"c5count":         150,  // 67 [75 279]
		"c4detect":        30,   // 12 [12]
		"girth":           3500, // 1 740 [1 740]
		"girth_directed":  100,  // 42 [5 180]
	}
	base, _ := liveHeap() // no session yet: what a never-used one costs is noise here
	sess, err := cc.NewClique(n, cc.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	ops := graphPipelineOps(n, 1)
	for pass := 0; pass < 2; pass++ { // warm: the second pass maps what the first one trimmed by high-water marks
		for _, op := range ops {
			if _, _, err := op.run(sess); err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
		}
	}
	for _, op := range ops {
		got := testing.AllocsPerRun(3, func() {
			if _, _, err := op.run(sess); err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
		})
		t.Logf("%-16s %8.0f allocs/op (budget %.0f)", op.name, got, budget[op.name])
		if got > budget[op.name] {
			t.Errorf("%s: %.0f allocs/op on a warm session, budget %.0f", op.name, got, budget[op.name])
		}
	}
	sess.ResetStats()
	warm, objects := liveHeap()
	t.Logf("warm session retains %.1f MB, %d heap objects in all", float64(warm-base)/(1<<20), objects)
	sess.Trim()
	trimmed, _ := liveHeap()
	if over := int64(trimmed) - int64(base); over > 1<<20 {
		t.Errorf("Trim left %.1f MB over a never-used session's heap, want < 1 MB", float64(over)/(1<<20))
	}
}

// TestWarmServeOpAllocs pins, exactly, what a warm one-worker session
// allocates per call of the serving plane's product and graph ops at the
// sizes the serve_mixed yardstick sends (n = 16, 24, 32). On one worker
// the count does not depend on the machine. The dense engines' oblivious
// exchanges look their charge up in a process-wide memo
// (routing.ObliviousCosts) on every warm flush; the pins hold that lookup
// to no allocation — they are the counts from before the memo existed.
func TestWarmServeOpAllocs(t *testing.T) {
	if raceDetector() {
		t.Skip("the Boolean kernels draw scratch from a sync.Pool, which -race makes lossy")
	}
	pins := map[int]map[string]float64{
		16: {"matmul": 29, "matmul_bool": 20, "distance_product": 20, "apsp": 56, "triangles": 20},
		24: {"matmul": 20, "matmul_bool": 20, "distance_product": 20, "apsp": 56, "triangles": 73},
		32: {"matmul": 31, "matmul_bool": 20, "distance_product": 20, "apsp": 56, "triangles": 90},
	}
	for _, n := range []int{16, 24, 32} {
		a, b := randSquare(n, 71), randSquare(n, 72)
		adj := make(cc.Mat, n)
		for i := range adj {
			adj[i] = make([]int64, n)
			for j := range adj[i] {
				if i != j && (7*i+3*j)%5 == 0 {
					adj[i][j] = 1
				}
			}
		}
		g := cc.RandomConnectedWeighted(n, 0.3, 50, true, uint64(n))
		u := cc.GNP(n, 0.3, false, uint64(n))
		sess, err := cc.NewClique(n, cc.WithWorkers(1))
		if err != nil {
			t.Fatal(err)
		}
		ops := []struct {
			name string
			call func() error
		}{
			{"matmul", func() error { _, _, err := sess.MatMul(a, b); return err }},
			{"matmul_bool", func() error { _, _, err := sess.MatMulBool(adj, adj); return err }},
			{"distance_product", func() error { _, _, err := sess.DistanceProduct(a, b); return err }},
			{"apsp", func() error { _, _, err := sess.APSP(g); return err }},
			{"triangles", func() error { _, _, err := sess.CountTriangles(u); return err }},
		}
		for _, op := range ops {
			call := func() {
				if err := op.call(); err != nil {
					t.Fatalf("%s n=%d: %v", op.name, n, err)
				}
			}
			for warm := 0; warm < 3; warm++ { // buffers reach their high-water marks over the first calls
				call()
			}
			if got, want := testing.AllocsPerRun(5, call), pins[n][op.name]; got != want {
				t.Errorf("%s n=%d: %.0f allocs/op on a warm one-worker session, pinned %.0f", op.name, n, got, want)
			}
		}
		sess.Close()
	}
}

// TestGraphOpPhasesWithinBounds grades every phase of the graph_pipeline
// operations, on both transports, against the information bound it
// recorded: Bound ≤ Rounds, and the two transports record one ledger,
// bounds included. (The engines' own phases are graded over the parity
// table in internal/ccmm, TestPhaseBoundsBelowCharges.)
func TestGraphOpPhasesWithinBounds(t *testing.T) {
	const n = 64
	for _, op := range graphPipelineOps(n, 1) {
		var phases [2][]cc.PhaseStat
		for i, opts := range [][]cc.SessionOption{nil, {cc.WithWireTransport()}} {
			s, err := cc.NewClique(n, opts...)
			if err != nil {
				t.Fatal(err)
			}
			_, st, err := op.run(s)
			s.Close()
			if err != nil {
				t.Fatalf("%s: %v", op.name, err)
			}
			phases[i] = st.Phases
			for _, p := range st.Phases {
				if p.Bound > p.Rounds {
					t.Errorf("%s: phase %s charged %d rounds below its bound %d", op.name, p.Name, p.Rounds, p.Bound)
				}
			}
		}
		if !reflect.DeepEqual(phases[0], phases[1]) {
			t.Errorf("%s: direct and wire phases differ:\n%+v\n%+v", op.name, phases[0], phases[1])
		}
	}
}
