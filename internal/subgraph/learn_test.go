package subgraph

import (
	"math/bits"
	"reflect"
	"testing"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
)

// learnInput draws FuzzLearnGraph's graph: n = 1 + raw mod 300, and the
// pairs u < v in lexicographic order take the bits of edges in turn,
// cyclically (no bytes, no edges).
func learnInput(raw uint16, edges []byte) *graphs.Graph {
	n := 1 + int(raw)%300
	g := graphs.NewGraph(n, false)
	if len(edges) == 0 {
		return g
	}
	p := 0
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if edges[p/8%len(edges)]>>(p%8)&1 != 0 {
				g.AddEdge(u, v)
			}
			p++
		}
	}
	return g
}

// learnSeed is one FuzzLearnGraph input.
type learnSeed struct {
	raw   uint16
	edges []byte
}

// learnSeeds is FuzzLearnGraph's committed corpus: at every n where the id
// width bits.Len(n−1) steps, an empty graph, a complete one (every row
// full) and two sparser ones; TestLearnGraphSeedsCoverForms holds it to
// reaching both row forms, empty rows and full rows.
var learnSeeds = func() (seeds []learnSeed) {
	for _, n := range []uint16{1, 2, 3, 5, 9, 17, 33, 65, 129, 257, 300} {
		for _, edges := range [][]byte{nil, {0xff}, {0x01, 0, 0, 0x10, 0, 0, 0, 0}, {0x5b, 0xe1}} {
			seeds = append(seeds, learnSeed{n - 1, edges})
		}
	}
	return seeds
}()

// FuzzLearnGraph: for any graph, the graph the wire transport rebuilds from
// the packed rows is g edge for edge, and the direct transport, which
// reads g in place, charges the same ledger.
func FuzzLearnGraph(f *testing.F) {
	for _, s := range learnSeeds {
		f.Add(s.raw, s.edges)
	}
	f.Fuzz(func(t *testing.T, raw uint16, edges []byte) {
		g := learnInput(raw, edges)
		n := g.N()
		direct, wire := clique.New(n), clique.New(n, clique.WithTransport(clique.TransportWire))
		defer direct.Close()
		defer wire.Close()
		counts := HigherCounts(direct, g)
		var m int64
		for v, k := range counts {
			var want int64
			for _, u := range g.Neighbors(v) {
				if u > v {
					want++
				}
			}
			if k != want {
				t.Fatalf("n=%d: node %d counts %d higher neighbours, has %d", n, v, k, want)
			}
			m += k
		}
		if m != int64(g.EdgeCount()) {
			t.Fatalf("n=%d: counts sum to %d, graph has %d edges", n, m, g.EdgeCount())
		}
		LearnGraph(direct, g, counts)
		got := LearnGraph(wire, g, HigherCounts(wire, g))
		for u := 0; u < n; u++ {
			if !reflect.DeepEqual(got.Row(u), g.Row(u)) {
				t.Fatalf("n=%d: node %d learned row %v, has %v", n, u, got.Row(u), g.Row(u))
			}
		}
		if ds, ws := direct.Stats(), wire.Stats(); !reflect.DeepEqual(ds, ws) {
			t.Fatalf("n=%d: ledgers differ:\ndirect %+v\nwire   %+v", n, ds, ws)
		}
	})
}

// TestLearnGraphSeedsCoverForms: the committed corpus ships rows in both
// forms, rows with no higher neighbour, full rows of more than one word,
// and reaches every n at which the id width steps.
func TestLearnGraphSeedsCoverForms(t *testing.T) {
	var bitmap, ids, empty, full bool
	widths := map[int]bool{}
	for _, s := range learnSeeds {
		g := learnInput(s.raw, s.edges)
		n := g.N()
		widths[bits.Len(uint(n-1))] = true
		for v := 0; v < n; v++ {
			k := int64(higher(g.Row(v), v))
			form, words := rowForm(n, v, k)
			switch {
			case k == 0:
				empty = true
			case form:
				bitmap = true
			default:
				ids = true
			}
			full = full || (k == int64(n-v-1) && words > 1)
		}
	}
	for b := 0; b <= bits.Len(299); b++ {
		if !widths[b] {
			t.Errorf("no seed at id width %d", b)
		}
	}
	if !bitmap || !ids || !empty || !full {
		t.Errorf("seeds reach bitmap rows %v, id rows %v, empty rows %v, full multi-word rows %v; want all",
			bitmap, ids, empty, full)
	}
}
