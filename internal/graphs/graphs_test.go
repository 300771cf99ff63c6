package graphs_test

import (
	"math/rand/v2"
	"testing"

	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

func TestBitsetBasics(t *testing.T) {
	b := graphs.NewBitset(130)
	b.Set(0)
	b.Set(64)
	b.Set(129)
	if !b.Get(0) || !b.Get(64) || !b.Get(129) || b.Get(1) {
		t.Error("Get/Set broken across word boundaries")
	}
	if b.Count() != 3 {
		t.Errorf("Count = %d, want 3", b.Count())
	}
	var seen []int
	b.ForEach(func(i int) { seen = append(seen, i) })
	if len(seen) != 3 || seen[0] != 0 || seen[1] != 64 || seen[2] != 129 {
		t.Errorf("ForEach order = %v", seen)
	}
	c := b.Clone()
	c.Set(7)
	if b.Get(7) {
		t.Error("Clone shares storage")
	}
	o := graphs.NewBitset(130)
	o.Set(129)
	o.Set(3)
	if b.IntersectCount(o) != 1 {
		t.Error("IntersectCount wrong")
	}
}

func TestGraphBasicsUndirected(t *testing.T) {
	g := graphs.NewGraph(5, false)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	if !g.HasEdge(1, 0) || !g.HasEdge(0, 1) {
		t.Error("undirected edge not symmetric")
	}
	if g.EdgeCount() != 2 {
		t.Errorf("EdgeCount = %d, want 2", g.EdgeCount())
	}
	if g.OutDegree(1) != 2 || g.OutDegree(4) != 0 {
		t.Error("degrees wrong")
	}
	if n := g.Neighbors(1); len(n) != 2 || n[0] != 0 || n[1] != 2 {
		t.Errorf("Neighbors(1) = %v", n)
	}
}

func TestGraphBasicsDirected(t *testing.T) {
	g := graphs.NewGraph(4, true)
	g.AddEdge(0, 1)
	g.AddEdge(1, 0)
	g.AddEdge(2, 3)
	if g.HasEdge(3, 2) {
		t.Error("directed edge should not be symmetric")
	}
	if g.EdgeCount() != 3 {
		t.Errorf("EdgeCount = %d, want 3", g.EdgeCount())
	}
}

func TestAdjacencyMatrices(t *testing.T) {
	g := graphs.Cycle(4, false)
	a := g.AdjacencyInt()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if (a.At(i, j) == 1) != g.HasEdge(i, j) {
				t.Fatalf("adjacency mismatch at (%d,%d)", i, j)
			}
		}
	}
	// tr(A^3)/6 = triangle count = 0 for C4; tr(A^2) = 2m.
	r := ring.Int64{}
	a2 := matrix.Mul[int64](r, a, a)
	if matrix.Trace[int64](r, a2) != int64(2*g.EdgeCount()) {
		t.Error("tr(A²) != 2m")
	}
}

func TestSelfLoopPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("self-loop accepted")
		}
	}()
	graphs.NewGraph(3, true).AddEdge(1, 1)
}

func TestGNPDeterministicAndSane(t *testing.T) {
	g1 := graphs.GNP(40, 0.3, false, 7)
	g2 := graphs.GNP(40, 0.3, false, 7)
	g3 := graphs.GNP(40, 0.3, false, 8)
	if g1.EdgeCount() != g2.EdgeCount() {
		t.Error("same seed produced different graphs")
	}
	same := true
	for u := 0; u < 40 && same; u++ {
		for v := 0; v < 40; v++ {
			if g1.HasEdge(u, v) != g2.HasEdge(u, v) {
				same = false
				break
			}
		}
	}
	if !same {
		t.Error("same seed produced different edges")
	}
	if g1.EdgeCount() == g3.EdgeCount() && g1.EdgeCount() > 0 {
		// Different seeds *can* coincide in count; check edges differ.
		diff := false
		for u := 0; u < 40 && !diff; u++ {
			for v := 0; v < 40; v++ {
				if g1.HasEdge(u, v) != g3.HasEdge(u, v) {
					diff = true
					break
				}
			}
		}
		if !diff {
			t.Error("different seeds produced identical graphs")
		}
	}
	m := g1.EdgeCount()
	max := 40 * 39 / 2
	if m < max/6 || m > max/2 {
		t.Errorf("G(40, .3) has %d edges out of %d, implausible", m, max)
	}
}

func TestStructuredGenerators(t *testing.T) {
	if g := graphs.Cycle(5, false); g.EdgeCount() != 5 || g.OutDegree(0) != 2 {
		t.Error("cycle malformed")
	}
	if g := graphs.Path(5, false); g.EdgeCount() != 4 {
		t.Error("path malformed")
	}
	if g := graphs.Complete(6, false); g.EdgeCount() != 15 {
		t.Error("K6 malformed")
	}
	if g := graphs.Complete(4, true); g.EdgeCount() != 12 {
		t.Error("directed K4 malformed")
	}
	if g := graphs.CompleteBipartite(3, 4); g.EdgeCount() != 12 || graphs.CountTrianglesRef(g) != 0 {
		t.Error("K_{3,4} malformed")
	}
	tor := graphs.Torus(3, 4)
	if tor.EdgeCount() != 2*12 {
		t.Errorf("torus edges = %d, want 24", tor.EdgeCount())
	}
	for v := 0; v < tor.N(); v++ {
		if tor.OutDegree(v) != 4 {
			t.Fatalf("torus node %d degree %d", v, tor.OutDegree(v))
		}
	}
	pet := graphs.Petersen()
	if pet.EdgeCount() != 15 || pet.N() != 10 {
		t.Error("Petersen malformed")
	}
	for v := 0; v < 10; v++ {
		if pet.OutDegree(v) != 3 {
			t.Error("Petersen is 3-regular")
		}
	}
	tree := graphs.Tree(30, 5)
	if tree.EdgeCount() != 29 {
		t.Error("tree edge count")
	}
	if _, ok := graphs.GirthRef(tree); ok {
		t.Error("tree has no cycle")
	}
}

func TestKnownCountsAndGirths(t *testing.T) {
	cases := []struct {
		name      string
		g         *graphs.Graph
		triangles int64
		c4        int64
		girth     int
		hasGirth  bool
	}{
		{"K4", graphs.Complete(4, false), 4, 3, 3, true},
		{"K5", graphs.Complete(5, false), 10, 15, 3, true},
		{"C4", graphs.Cycle(4, false), 0, 1, 4, true},
		{"C5", graphs.Cycle(5, false), 0, 0, 5, true},
		{"C7", graphs.Cycle(7, false), 0, 0, 7, true},
		{"K23", graphs.CompleteBipartite(2, 3), 0, 3, 4, true},
		{"K33", graphs.CompleteBipartite(3, 3), 0, 9, 4, true},
		{"Petersen", graphs.Petersen(), 0, 0, 5, true},
		{"Torus34", graphs.Torus(3, 4), 0, 0, 3, true}, // 3-dim wraps create C3? no: see below
		{"Path", graphs.Path(6, false), 0, 0, 0, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "Torus34" {
				// A 3-row torus has a wrap-around 3-cycle in each column
				// direction: girth 3, no triangles? Wrap of length 3 IS a
				// triangle (v, v+cols, v+2cols). Skip the fixed expectation
				// and just cross-check the two references.
				g, ok := graphs.GirthRef(tc.g)
				if !ok || g != 3 {
					t.Fatalf("torus(3,4) girth = %d, %v; want 3 (column wrap)", g, ok)
				}
				if graphs.CountTrianglesRef(tc.g) != 4 {
					t.Fatalf("torus(3,4) should have one triangle per column, got %d",
						graphs.CountTrianglesRef(tc.g))
				}
				return
			}
			if got := graphs.CountTrianglesRef(tc.g); got != tc.triangles {
				t.Errorf("triangles = %d, want %d", got, tc.triangles)
			}
			if got := graphs.CountC4Ref(tc.g); got != tc.c4 {
				t.Errorf("C4s = %d, want %d", got, tc.c4)
			}
			g, ok := graphs.GirthRef(tc.g)
			if ok != tc.hasGirth || (ok && g != tc.girth) {
				t.Errorf("girth = (%d, %v), want (%d, %v)", g, ok, tc.girth, tc.hasGirth)
			}
			if graphs.HasC4Ref(tc.g) != (tc.c4 > 0) {
				t.Error("HasC4Ref inconsistent with CountC4Ref")
			}
		})
	}
}

func TestDirectedTriangleAndC4Counts(t *testing.T) {
	// Directed 3-cycle.
	g := graphs.Cycle(3, true)
	if graphs.CountTrianglesRef(g) != 1 {
		t.Error("directed C3 should count 1 triangle")
	}
	// Orientation without a directed cycle.
	dag := graphs.NewGraph(3, true)
	dag.AddEdge(0, 1)
	dag.AddEdge(1, 2)
	dag.AddEdge(0, 2)
	if graphs.CountTrianglesRef(dag) != 0 {
		t.Error("transitive triangle is not a directed 3-cycle")
	}
	// Directed 4-cycle.
	c4 := graphs.Cycle(4, true)
	if graphs.CountC4Ref(c4) != 1 {
		t.Error("directed C4 should count 1")
	}
	if g, ok := graphs.GirthRef(c4); !ok || g != 4 {
		t.Errorf("directed C4 girth = %d", g)
	}
	// Two antiparallel edges form a directed 2-cycle.
	two := graphs.NewGraph(2, true)
	two.AddEdge(0, 1)
	two.AddEdge(1, 0)
	if g, ok := graphs.GirthRef(two); !ok || g != 2 {
		t.Errorf("antiparallel pair girth = %d, want 2", g)
	}
}

func TestHasKCycleRef(t *testing.T) {
	pet := graphs.Petersen()
	for k, want := range map[int]bool{3: false, 4: false, 5: true, 6: true, 8: true, 9: true} {
		if got := graphs.HasKCycleRef(pet, k); got != want {
			t.Errorf("Petersen has %d-cycle = %v, want %v", k, got, want)
		}
	}
	c6 := graphs.Cycle(6, false)
	for k, want := range map[int]bool{3: false, 4: false, 5: false, 6: true} {
		if got := graphs.HasKCycleRef(c6, k); got != want {
			t.Errorf("C6 has %d-cycle = %v, want %v", k, got, want)
		}
	}
	dir := graphs.Cycle(5, true)
	if !graphs.HasKCycleRef(dir, 5) || graphs.HasKCycleRef(dir, 3) {
		t.Error("directed 5-cycle detection wrong")
	}
}

func TestPlantedCycle(t *testing.T) {
	g, nodes := graphs.PlantedCycle(30, 6, 0.02, false, 11)
	if len(nodes) != 6 {
		t.Fatal("planted cycle node list wrong")
	}
	for i := range nodes {
		if !g.HasEdge(nodes[i], nodes[(i+1)%6]) {
			t.Fatal("planted edge missing")
		}
	}
	if !graphs.HasKCycleRef(g, 6) {
		t.Error("planted 6-cycle not found by reference")
	}
}

func TestWeightedBasics(t *testing.T) {
	g := graphs.NewWeighted(4, false)
	g.SetEdge(0, 1, 5)
	g.SetEdge(1, 2, 7)
	if g.Weight(1, 0) != 5 {
		t.Error("undirected weight not symmetric")
	}
	if !g.HasEdge(0, 1) || g.HasEdge(0, 2) {
		t.Error("HasEdge wrong")
	}
	if g.Weight(3, 3) != 0 {
		t.Error("diagonal must be 0")
	}
	if !ring.IsInf(g.Weight(0, 3)) {
		t.Error("missing edge must be Inf")
	}
	if g.MaxWeight() != 7 {
		t.Errorf("MaxWeight = %d", g.MaxWeight())
	}
	u := g.Unweighted()
	if u.EdgeCount() != 2 || !u.HasEdge(2, 1) {
		t.Error("Unweighted conversion wrong")
	}
	w2 := graphs.UnitWeights(graphs.Cycle(5, false))
	if w2.Weight(0, 1) != 1 || w2.MaxWeight() != 1 {
		t.Error("UnitWeights wrong")
	}
}

func TestFloydWarshallOnKnownGraph(t *testing.T) {
	g := graphs.NewWeighted(4, true)
	g.SetEdge(0, 1, 1)
	g.SetEdge(1, 2, 2)
	g.SetEdge(2, 3, 3)
	g.SetEdge(0, 3, 10)
	d, err := graphs.FloydWarshall(g)
	if err != nil {
		t.Fatal(err)
	}
	if d.At(0, 3) != 6 || d.At(0, 2) != 3 || !ring.IsInf(d.At(3, 0)) {
		t.Errorf("distances wrong: d(0,3)=%d d(0,2)=%d", d.At(0, 3), d.At(0, 2))
	}
	diam, all := graphs.DiameterOf(d)
	if all {
		t.Error("graph is not strongly connected")
	}
	if diam != 6 {
		t.Errorf("diameter = %d, want 6", diam)
	}
}

func TestFloydWarshallNegativeCycle(t *testing.T) {
	g := graphs.NewWeighted(3, true)
	g.SetEdge(0, 1, 1)
	g.SetEdge(1, 0, -2)
	if _, err := graphs.FloydWarshall(g); err == nil {
		t.Error("negative cycle not detected")
	}
}

func TestBFSAllPairsMatchesFloydWarshall(t *testing.T) {
	rng := rand.New(rand.NewPCG(13, 13))
	for trial := 0; trial < 5; trial++ {
		g := graphs.GNP(20, 0.15, rng.IntN(2) == 0, rng.Uint64())
		bfs := graphs.BFSAllPairs(g)
		fw, err := graphs.FloydWarshall(graphs.UnitWeights(g))
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.Equal[int64](ring.MinPlus{}, bfs, fw) {
			t.Fatal("BFS and Floyd–Warshall disagree on unit weights")
		}
	}
}

func TestRandomWeightedGenerators(t *testing.T) {
	g := graphs.RandomWeighted(30, 0.2, 50, true, 3)
	if g.MaxWeight() > 50 || g.MaxWeight() < 1 {
		t.Errorf("weights out of range: max %d", g.MaxWeight())
	}
	c := graphs.RandomConnectedWeighted(25, 0.05, 10, true, 4)
	d, err := graphs.FloydWarshall(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, all := graphs.DiameterOf(d); !all {
		t.Error("RandomConnectedWeighted not strongly connected")
	}
}

func TestPreferentialAttachmentSkew(t *testing.T) {
	g := graphs.PreferentialAttachment(200, 2, 9)
	if g.EdgeCount() < 150 {
		t.Errorf("PA graph too sparse: %d edges", g.EdgeCount())
	}
	maxDeg := 0
	for v := 0; v < g.N(); v++ {
		if d := g.OutDegree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 8 {
		t.Errorf("PA graph max degree %d; expected a skewed hub", maxDeg)
	}
}

func TestCountC4RefAgainstBruteForce(t *testing.T) {
	// Cross-validate the pair-counting formula against literal 4-tuple
	// enumeration on small random graphs.
	rng := rand.New(rand.NewPCG(17, 17))
	for trial := 0; trial < 10; trial++ {
		g := graphs.GNP(10, 0.4, false, rng.Uint64())
		var brute int64
		n := g.N()
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				for c := 0; c < n; c++ {
					for d := 0; d < n; d++ {
						if a == b || a == c || a == d || b == c || b == d || c == d {
							continue
						}
						if g.HasEdge(a, b) && g.HasEdge(b, c) && g.HasEdge(c, d) && g.HasEdge(d, a) {
							brute++
						}
					}
				}
			}
		}
		brute /= 8 // 4 rotations × 2 reflections
		if got := graphs.CountC4Ref(g); got != brute {
			t.Fatalf("CountC4Ref = %d, brute force = %d", got, brute)
		}
	}
}

func TestGirthRefOnRandomGraphsAgainstKCycle(t *testing.T) {
	rng := rand.New(rand.NewPCG(19, 19))
	for trial := 0; trial < 10; trial++ {
		g := graphs.GNP(12, 0.2, false, rng.Uint64())
		girth, ok := graphs.GirthRef(g)
		if !ok {
			for k := 3; k <= 12; k++ {
				if graphs.HasKCycleRef(g, k) {
					t.Fatal("GirthRef says acyclic but a cycle exists")
				}
			}
			continue
		}
		if graphs.HasKCycleRef(g, girth) == false {
			t.Fatalf("girth %d cycle not found by HasKCycleRef", girth)
		}
		for k := 3; k < girth; k++ {
			if graphs.HasKCycleRef(g, k) {
				t.Fatalf("cycle of length %d < girth %d exists", k, girth)
			}
		}
	}
}
