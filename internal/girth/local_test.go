package girth

import (
	"math/rand/v2"
	"runtime/debug"
	"testing"

	"github.com/algebraic-clique/algclique/internal/graphs"
)

// TestLocalMatchesGirthRef holds the sparse branch's local solve to
// graphs.GirthRef on every size n = 1 … 200, in a shuffled order so the
// pooled buffers are reused at sizes above and below the ones they were
// grown for: G(n, p) at p ∈ {0.02, 0.1, 0.5}, trees, K_n, K_{a,n−a}, and a
// tree with one chord; then the cycles C_3 … C_64 alone and hung on a
// tree. An acyclic graph must come back ok = false.
func TestLocalMatchesGirthRef(t *testing.T) {
	check := func(name string, g *graphs.Graph) {
		t.Helper()
		got, ok := local(g)
		want, wantOK := graphs.GirthRef(g)
		if ok != wantOK || got != want {
			t.Fatalf("%s: local = (%d, %v), GirthRef = (%d, %v)", name, got, ok, want, wantOK)
		}
	}
	acyclic := func(name string, g *graphs.Graph) {
		t.Helper()
		if got, ok := local(g); ok {
			t.Fatalf("%s: acyclic graph answered girth %d", name, got)
		}
		check(name, g)
	}
	rng := rand.New(rand.NewPCG(53, 1))
	for _, n := range rng.Perm(200) {
		n++
		seed := rng.Uint64()
		for _, p := range []float64{0.02, 0.1, 0.5} {
			check("gnp", graphs.GNP(n, p, false, seed))
		}
		tree := graphs.Tree(n, seed)
		acyclic("tree", tree)
		acyclic("empty", graphs.NewGraph(n, false))
		check("complete", graphs.Complete(n, false))
		if n >= 2 {
			a := 1 + rng.IntN(n-1)
			bip := graphs.CompleteBipartite(a, n-a)
			if a == 1 || a == n-1 {
				acyclic("star", bip)
			} else {
				check("bipartite", bip)
			}
		}
		if u, v := rng.IntN(n), rng.IntN(n); u != v && !tree.HasEdge(u, v) {
			tree.AddEdge(u, v)
			check("tree+chord", tree)
		}
	}
	for k := 3; k <= 64; k++ {
		check("cycle", graphs.Cycle(k, false))
		g := graphs.Tree(k+40, uint64(k))
		hung := graphs.NewGraph(k+40, false)
		for u := 0; u < k+40; u++ {
			for _, v := range g.Neighbors(u) {
				if u < v {
					hung.AddEdge(u, v)
				}
			}
			if u < k {
				hung.AddEdge(u, (u+1)%k)
			}
		}
		check("cycle on a tree", hung)
	}
}

// TestLocalAllocatesNothing: a warm solve runs on pooled buffers.
func TestLocalAllocatesNothing(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("-race makes sync.Pool drop Puts at random")
			}
		}
	}
	g := graphs.GNP(144, 0.1, false, 2)
	local(g)
	if got := testing.AllocsPerRun(10, func() { local(g) }); got != 0 {
		t.Errorf("warm local solve: %.0f allocs, want 0", got)
	}
}
