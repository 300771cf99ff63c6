package graphs_test

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"github.com/algebraic-clique/algclique/internal/graphs"
)

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for trial := 0; trial < 10; trial++ {
		g := graphs.GNP(20, 0.2, rng.IntN(2) == 0, rng.Uint64())
		var buf bytes.Buffer
		if err := graphs.WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := graphs.ReadEdgeList(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if back.N() != g.N() || back.Directed() != g.Directed() {
			t.Fatal("header mismatch")
		}
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if g.HasEdge(u, v) != back.HasEdge(u, v) {
					t.Fatalf("edge (%d,%d) mismatch", u, v)
				}
			}
		}
	}
}

func TestWeightedEdgeListRoundTrip(t *testing.T) {
	g := graphs.RandomWeighted(15, 0.3, 99, true, 7)
	var buf bytes.Buffer
	if err := graphs.WriteWeightedEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := graphs.ReadWeightedEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if g.Weight(u, v) != back.Weight(u, v) {
				t.Fatalf("weight (%d,%d) mismatch", u, v)
			}
		}
	}
}

// malformedEdgeLists are inputs ReadEdgeList must reject: the error rows of
// TestReadEdgeListCommentsAndErrors and the seeds of FuzzReadEdgeList.
var malformedEdgeLists = []string{
	"",                             // no header
	"0 1\n",                        // edge before header
	"n 4\n",                        // short header
	"n -1 undirected\n",            // bad count
	"n 4 sideways\n",               // bad kind
	"n 4 undirected\n0\n",          // short edge
	"n 4 undirected\n0 9\n",        // out of range
	"n 4 undirected\n1 1\n",        // self loop
	"n 2 directed\nn 2 directed\n", // duplicate header
	"n 4000000000000 undirected\n", // count no process could hold
	"n 16385 undirected\n",         // just over MaxReadNodes
}

func TestReadEdgeListCommentsAndErrors(t *testing.T) {
	good := "# a comment\nn 4 undirected\n0 1\n\n2 3\n"
	g, err := graphs.ReadEdgeList(strings.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 2 || !g.HasEdge(1, 0) {
		t.Error("parsed graph wrong")
	}
	for _, s := range malformedEdgeLists {
		if _, err := graphs.ReadEdgeList(strings.NewReader(s)); err == nil {
			t.Errorf("accepted malformed input %q", s)
		}
	}
	badW := []string{
		"n 4 undirected\n0 1 5\n",          // missing 'weighted'
		"n 4 undirected weighted\n0 1\n",   // missing weight
		"n 4 undirected weighted\n0 1 x\n", // bad weight
		"n 4000000000000 undirected weighted\n",
		"n 16385 undirected weighted\n",
		"n 2049 undirected weighted\n", // just over MaxReadWeightedNodes
	}
	for _, s := range badW {
		if _, err := graphs.ReadWeightedEdgeList(strings.NewReader(s)); err == nil {
			t.Errorf("accepted malformed weighted input %q", s)
		}
	}
}

func TestReadEdgeListDeduplicates(t *testing.T) {
	g, err := graphs.ReadEdgeList(strings.NewReader("n 3 undirected\n0 1\n1 0\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 1 {
		t.Errorf("EdgeCount = %d, want 1", g.EdgeCount())
	}
}

// FuzzReadEdgeList: whatever the bytes, ReadEdgeList returns an error or a
// graph that WriteEdgeList and a second read reproduce — never a panic, and
// never an allocation the header alone decides (MaxReadNodes).
func FuzzReadEdgeList(f *testing.F) {
	f.Add("# a comment\nn 4 undirected\n0 1\n\n2 3\n")
	for _, s := range malformedEdgeLists {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, in string) {
		g, err := graphs.ReadEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := graphs.WriteEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := graphs.ReadEdgeList(&buf)
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if back.N() != g.N() || back.Directed() != g.Directed() {
			t.Fatalf("header changed: n %d→%d, directed %v→%v", g.N(), back.N(), g.Directed(), back.Directed())
		}
		for u := 0; u < g.N(); u++ {
			if !slices.Equal(g.Neighbors(u), back.Neighbors(u)) {
				t.Fatalf("row %d changed: %v → %v", u, g.Neighbors(u), back.Neighbors(u))
			}
		}
	})
}

// FuzzReadWeightedEdgeList holds the weighted reader to FuzzReadEdgeList's
// contract: whatever the bytes, ReadWeightedEdgeList returns an error or a
// graph that WriteWeightedEdgeList and a second read reproduce — the same
// size, kind, edges and edge weights — never a panic, and never an
// allocation the header alone decides (MaxReadWeightedNodes).
func FuzzReadWeightedEdgeList(f *testing.F) {
	f.Add("# a comment\nn 4 directed weighted\n0 1 5\n\n2 3 -7\n")
	f.Fuzz(func(t *testing.T, in string) {
		g, err := graphs.ReadWeightedEdgeList(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := graphs.WriteWeightedEdgeList(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := graphs.ReadWeightedEdgeList(&buf)
		if err != nil {
			t.Fatalf("own output rejected: %v", err)
		}
		if back.N() != g.N() || back.Directed() != g.Directed() {
			t.Fatalf("header changed: n %d→%d, directed %v→%v", g.N(), back.N(), g.Directed(), back.Directed())
		}
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				if g.HasEdge(u, v) != back.HasEdge(u, v) || (g.HasEdge(u, v) && g.Weight(u, v) != back.Weight(u, v)) {
					t.Fatalf("edge (%d,%d) changed: weight %d → %d", u, v, g.Weight(u, v), back.Weight(u, v))
				}
			}
		}
	})
}
