package subgraph_test

import (
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/subgraph"
)

func TestCountTrianglesMatchesReference(t *testing.T) {
	cases := []struct {
		name   string
		g      *graphs.Graph
		engine ccmm.Engine
	}{
		{"K4 fast", graphs.Complete(16, false), ccmm.EngineFast},
		{"gnp16 fast", graphs.GNP(16, 0.4, false, 1), ccmm.EngineFast},
		{"gnp27 3d", graphs.GNP(27, 0.3, false, 2), ccmm.Engine3D},
		{"gnp20 naive", graphs.GNP(20, 0.3, false, 3), ccmm.EngineNaive},
		{"gnp64 auto", graphs.GNP(64, 0.1, false, 4), ccmm.EngineAuto},
		{"digraph16", graphs.GNP(16, 0.3, true, 5), ccmm.EngineFast},
		{"digraph27", graphs.GNP(27, 0.25, true, 6), ccmm.Engine3D},
		{"directed C3", graphs.Cycle(16, true), ccmm.EngineFast},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := clique.New(tc.g.N())
			got, err := subgraph.CountTriangles(net, tc.engine, tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if want := graphs.CountTrianglesRef(tc.g); got != want {
				t.Errorf("triangles = %d, want %d", got, want)
			}
		})
	}
}

func TestCountC4MatchesReference(t *testing.T) {
	cases := []struct {
		name   string
		g      *graphs.Graph
		engine ccmm.Engine
	}{
		{"C4 in 16", withCycle(16, 4), ccmm.EngineFast},
		{"K23 padded", padTo(graphs.CompleteBipartite(2, 3), 16), ccmm.EngineFast},
		{"gnp16", graphs.GNP(16, 0.35, false, 7), ccmm.EngineFast},
		{"gnp27 3d", graphs.GNP(27, 0.3, false, 8), ccmm.Engine3D},
		{"gnp18 naive", graphs.GNP(18, 0.3, false, 9), ccmm.EngineNaive},
		{"digraph16", graphs.GNP(16, 0.3, true, 10), ccmm.EngineFast},
		{"directed C4", graphs.Cycle(16, true), ccmm.EngineFast},
		{"digraph antiparallel", antiparallel(16, 11), ccmm.EngineFast},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := clique.New(tc.g.N())
			got, err := subgraph.CountC4(net, tc.engine, tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if want := graphs.CountC4Ref(tc.g); got != want {
				t.Errorf("4-cycles = %d, want %d", got, want)
			}
		})
	}
}

// withCycle returns an n-node graph that is a single k-cycle.
func withCycle(n, k int) *graphs.Graph {
	g := graphs.NewGraph(n, false)
	for i := 0; i < k; i++ {
		g.AddEdge(i, (i+1)%k)
	}
	return g
}

// padTo embeds g into a larger vertex set with isolated extra nodes.
func padTo(g *graphs.Graph, n int) *graphs.Graph {
	out := graphs.NewGraph(n, g.Directed())
	for u := 0; u < g.N(); u++ {
		for _, v := range g.Neighbors(u) {
			if g.Directed() || u < v {
				out.AddEdge(u, v)
			}
		}
	}
	return out
}

// antiparallel returns a random digraph rich in 2-cycles.
func antiparallel(n int, seed uint64) *graphs.Graph {
	g := graphs.GNP(n, 0.2, true, seed)
	rng := rand.New(rand.NewPCG(seed, 99))
	for i := 0; i < n; i++ {
		u, v := rng.IntN(n), rng.IntN(n)
		if u != v {
			if !g.HasEdge(u, v) {
				g.AddEdge(u, v)
			}
			if !g.HasEdge(v, u) {
				g.AddEdge(v, u)
			}
		}
	}
	return g
}

func TestCountRejectsSizeMismatch(t *testing.T) {
	net := clique.New(8)
	g := graphs.Complete(9, false)
	if _, err := subgraph.CountTriangles(net, ccmm.EngineAuto, g); err == nil {
		t.Error("size mismatch accepted")
	}
}

func TestDetectC4Positives(t *testing.T) {
	cases := []struct {
		name string
		g    *graphs.Graph
	}{
		{"pure C4", withCycle(16, 4)},
		{"K23", padTo(graphs.CompleteBipartite(2, 3), 12)},
		{"torus 4x4", graphs.Torus(4, 4)},
		{"dense gnp", graphs.GNP(32, 0.5, false, 21)},
		{"complete", graphs.Complete(24, false)},
		{"K33 padded", padTo(graphs.CompleteBipartite(3, 3), 20)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if !graphs.HasC4Ref(tc.g) {
				t.Fatal("test graph lacks a C4")
			}
			net := clique.New(tc.g.N())
			got, err := subgraph.DetectC4(net, tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if !got {
				t.Error("C4 not detected")
			}
		})
	}
}

func TestDetectC4Negatives(t *testing.T) {
	cases := []struct {
		name string
		g    *graphs.Graph
	}{
		{"petersen", padTo(graphs.Petersen(), 12)},
		{"heawood (extremal C4-free)", padTo(graphs.Heawood(), 16)},
		{"tree", graphs.Tree(32, 3)},
		{"C5", withCycle(16, 5)},
		{"C7", withCycle(20, 7)},
		{"triangle only", withCycle(16, 3)},
		{"empty", graphs.NewGraph(16, false)},
		{"star", starGraph(24)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if graphs.HasC4Ref(tc.g) {
				t.Fatal("test graph has a C4")
			}
			net := clique.New(tc.g.N())
			got, err := subgraph.DetectC4(net, tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if got {
				t.Error("false positive C4")
			}
		})
	}
}

func starGraph(n int) *graphs.Graph {
	g := graphs.NewGraph(n, false)
	for v := 1; v < n; v++ {
		g.AddEdge(0, v)
	}
	return g
}

func TestDetectC4SmallFallback(t *testing.T) {
	g := withCycle(4, 4)
	net := clique.New(4)
	got, err := subgraph.DetectC4(net, g)
	if err != nil || !got {
		t.Errorf("small C4: got (%v, %v)", got, err)
	}
	g2 := graphs.Path(6, false)
	net2 := clique.New(6)
	got, err = subgraph.DetectC4(net2, g2)
	if err != nil || got {
		t.Errorf("small path: got (%v, %v)", got, err)
	}
}

// TestLearnGraphTransportsAgree: every node ends up with the same graph, for
// the same ledger, on either transport — the direct one hands back the
// caller's graph, the wire one rebuilds it from the packed rows that
// travelled.
func TestLearnGraphTransportsAgree(t *testing.T) {
	for _, n := range []int{1, 2, 7, 64, 144} {
		g := graphs.GNP(n, 0.3, false, uint64(n))
		direct, wire := clique.New(n), clique.New(n, clique.WithTransport(clique.TransportWire))
		if got := subgraph.LearnGraph(direct, g, subgraph.HigherCounts(direct, g)); got != g {
			t.Fatalf("n=%d: the direct transport rebuilt the graph", n)
		}
		got := subgraph.LearnGraph(wire, g, subgraph.HigherCounts(wire, g))
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if got.HasEdge(u, v) != g.HasEdge(u, v) {
					t.Fatalf("n=%d: edge (%d, %d) learned as %v", n, u, v, got.HasEdge(u, v))
				}
			}
		}
		if ds, ws := direct.Stats(), wire.Stats(); !reflect.DeepEqual(ds, ws) {
			t.Fatalf("n=%d: ledgers differ:\ndirect %+v\nwire   %+v", n, ds, ws)
		}
		direct.Close()
		wire.Close()
	}
}

// TestDetectC4SmallLearnsExhaustively covers DetectC4's small-n branch,
// which learns the graph and checks it locally: every graph on n ≤ 5 nodes
// (1 024 at n = 5) and 200 random ones at n = 6 and 7 answer
// graphs.HasC4Ref on both transports, and the transports charge one ledger.
func TestDetectC4SmallLearnsExhaustively(t *testing.T) {
	check := func(g *graphs.Graph) {
		t.Helper()
		n := g.N()
		edges := func() (out [][2]int) {
			for u := 0; u < n; u++ {
				for _, v := range g.Neighbors(u) {
					if u < v {
						out = append(out, [2]int{u, v})
					}
				}
			}
			return out
		}
		want := graphs.HasC4Ref(g)
		var stats [2]clique.Stats
		for i, tr := range []clique.Transport{clique.TransportDirect, clique.TransportWire} {
			net := clique.New(n, clique.WithTransport(tr))
			got, err := subgraph.DetectC4(net, g)
			stats[i] = net.Stats()
			net.Close()
			if err != nil || got != want {
				t.Fatalf("n=%d %v: transport %v answered (%v, %v), want %v", n, edges(), tr, got, err, want)
			}
		}
		if !reflect.DeepEqual(stats[0], stats[1]) {
			t.Fatalf("n=%d: ledgers differ:\ndirect %+v\nwire   %+v", n, stats[0], stats[1])
		}
	}
	type pair struct{ u, v int }
	for n := 1; n <= 5; n++ {
		var pairs []pair
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				pairs = append(pairs, pair{u, v})
			}
		}
		for mask := 0; mask < 1<<len(pairs); mask++ {
			g := graphs.NewGraph(n, false)
			for i, p := range pairs {
				if mask>>i&1 != 0 {
					g.AddEdge(p.u, p.v)
				}
			}
			check(g)
		}
	}
	rng := rand.New(rand.NewPCG(6, 7))
	for _, n := range []int{6, 7} {
		for trial := 0; trial < 200; trial++ {
			check(graphs.GNP(n, rng.Float64(), false, rng.Uint64()))
		}
	}
}

func TestDetectC4RandomAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	for trial := 0; trial < 25; trial++ {
		n := 8 + rng.IntN(40)
		p := rng.Float64() * 0.25
		g := graphs.GNP(n, p, false, rng.Uint64())
		net := clique.New(n)
		got, err := subgraph.DetectC4(net, g)
		if err != nil {
			t.Fatal(err)
		}
		if want := graphs.HasC4Ref(g); got != want {
			t.Fatalf("n=%d p=%.2f: DetectC4 = %v, reference = %v", n, p, got, want)
		}
	}
}

func TestDetectC4ConstantRounds(t *testing.T) {
	// The headline property of Theorem 4: rounds do not grow with n.
	// Sparse random graphs with constant expected degree.
	var maxRounds int64
	for _, n := range []int{16, 64, 256} {
		g := graphs.GNP(n, 3.0/float64(n), false, 77)
		net := clique.New(n)
		if _, err := subgraph.DetectC4(net, g); err != nil {
			t.Fatal(err)
		}
		if net.Rounds() > maxRounds {
			maxRounds = net.Rounds()
		}
	}
	if maxRounds > 250 {
		t.Errorf("DetectC4 used %d rounds; expected an n-independent constant", maxRounds)
	}
}

func TestAllocateTilesInvariants(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 41))
	for trial := 0; trial < 30; trial++ {
		n := 8 + rng.IntN(120)
		degs := make([]int, n)
		// Random degree sequence respecting Σ deg² < 2n² (phase-1 bound).
		var sq int64
		for v := range degs {
			d := rng.IntN(n)
			if sq+int64(d)*int64(d) >= int64(2*n*n) {
				break
			}
			degs[v] = d
			sq += int64(d) * int64(d)
		}
		tiles, err := subgraph.AllocateTiles(degs, n)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		k := 1
		for k*2 <= n {
			k *= 2
		}
		occupied := make(map[[2]int]int)
		for _, tile := range tiles {
			if degs[tile.Y] < 1 {
				if tile.F != 0 {
					t.Fatal("isolated node received a tile")
				}
				continue
			}
			if tile.F < 1 || tile.F*8 < degs[tile.Y] {
				t.Fatalf("node %d deg %d: tile side %d violates f ≥ deg/8", tile.Y, degs[tile.Y], tile.F)
			}
			if tile.Row < 0 || tile.Col < 0 || tile.Row+tile.F > k || tile.Col+tile.F > k {
				t.Fatalf("tile %+v outside [0,%d)²", tile, k)
			}
			for _, a := range tile.A() {
				for _, b := range tile.B() {
					if prev, ok := occupied[[2]int{a, b}]; ok {
						t.Fatalf("tiles of %d and %d overlap at (%d,%d)", prev, tile.Y, a, b)
					}
					occupied[[2]int{a, b}] = tile.Y
				}
			}
			if len(tile.A()) != tile.F || len(tile.B()) != tile.F {
				t.Fatal("|A| or |B| differs from tile side")
			}
		}
	}
}

func TestColourfulKCycle(t *testing.T) {
	// A rainbow-coloured C5 must be detected; a colouring that repeats a
	// colour on the cycle must not.
	g := withCycle(16, 5)
	rainbow := make([]int, 16)
	for v := 0; v < 16; v++ {
		rainbow[v] = v % 5
	}
	net := clique.New(16)
	got, err := subgraph.DetectKCycleColourful(net, ccmm.EngineFast, g, 5, rainbow)
	if err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("rainbow C5 not detected")
	}
	bad := make([]int, 16)
	for v := range bad {
		bad[v] = v % 2 // cycle nodes 0..4 coloured 0,1,0,1,0 — not colourful
	}
	// Use 5 colours still; nodes only use colours {0,1}.
	net2 := clique.New(16)
	got, err = subgraph.DetectKCycleColourful(net2, ccmm.EngineFast, g, 5, bad)
	if err != nil {
		t.Fatal(err)
	}
	if got {
		t.Error("non-colourful colouring produced a detection")
	}
}

func TestDetectKCyclePlanted(t *testing.T) {
	cases := []struct {
		n, k     int
		directed bool
		engine   ccmm.Engine
	}{
		{16, 3, false, ccmm.EngineFast},
		{16, 4, false, ccmm.EngineFast},
		{27, 3, false, ccmm.Engine3D},
		{16, 3, true, ccmm.EngineFast},
		{16, 5, false, ccmm.EngineFast},
	}
	for _, tc := range cases {
		g, _ := graphs.PlantedCycle(tc.n, tc.k, 0.02, tc.directed, uint64(tc.n*tc.k))
		if !graphs.HasKCycleRef(g, tc.k) {
			t.Fatal("planted cycle missing")
		}
		net := clique.New(tc.n)
		found, trials, err := subgraph.DetectKCycle(net, tc.engine, g, tc.k,
			subgraph.KCycleOpts{Colourings: 120, Seed: 5})
		if err != nil {
			t.Fatalf("n=%d k=%d: %v", tc.n, tc.k, err)
		}
		if !found {
			t.Errorf("n=%d k=%d: planted cycle not found in %d colourings", tc.n, tc.k, trials)
		}
	}
}

func TestDetectKCycleNoFalsePositives(t *testing.T) {
	// Petersen has no 3- or 4-cycles; colour-coding must never claim one.
	g := padTo(graphs.Petersen(), 16)
	for _, k := range []int{3, 4} {
		net := clique.New(16)
		found, _, err := subgraph.DetectKCycle(net, ccmm.EngineFast, g, k,
			subgraph.KCycleOpts{Colourings: 30, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		if found {
			t.Errorf("false positive %d-cycle in Petersen", k)
		}
	}
}

func TestDetectKCycleDirectedTwoCycle(t *testing.T) {
	g := graphs.NewGraph(16, true)
	g.AddEdge(3, 7)
	g.AddEdge(7, 3)
	net := clique.New(16)
	found, _, err := subgraph.DetectKCycle(net, ccmm.EngineFast, g, 2,
		subgraph.KCycleOpts{Colourings: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Error("directed 2-cycle not detected")
	}
	// And k = 2 undirected must be rejected.
	if _, _, err := subgraph.DetectKCycle(clique.New(16), ccmm.EngineFast,
		graphs.Cycle(16, false), 2, subgraph.KCycleOpts{Colourings: 1}); err == nil {
		t.Error("undirected k=2 accepted")
	}
}

func TestDetectKCycleValidation(t *testing.T) {
	g := graphs.Cycle(16, false)
	net := clique.New(16)
	if _, err := subgraph.DetectKCycleColourful(net, ccmm.EngineFast, g, 3, make([]int, 5)); err == nil {
		t.Error("wrong colour vector length accepted")
	}
	bad := make([]int, 16)
	bad[3] = 7
	if _, err := subgraph.DetectKCycleColourful(net, ccmm.EngineFast, g, 3, bad); err == nil {
		t.Error("out-of-range colour accepted")
	}
}
