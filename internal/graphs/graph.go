package graphs

import (
	"fmt"

	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// Graph is an unweighted simple graph on nodes 0..n-1 with bitset adjacency
// rows. Undirected graphs store each edge in both rows. Self-loops are not
// allowed (the paper's cycle and distance problems assume loopless graphs;
// directed girth handles loops separately at the API level).
type Graph struct {
	n        int
	directed bool
	adj      []Bitset
}

// NewGraph returns an empty graph.
func NewGraph(n int, directed bool) *Graph {
	if n < 0 {
		panic(fmt.Sprintf("graphs: negative size %d", n))
	}
	g := &Graph{n: n, directed: directed, adj: make([]Bitset, n)}
	for i := range g.adj {
		g.adj[i] = NewBitset(n)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// Directed reports whether the graph is directed.
func (g *Graph) Directed() bool { return g.directed }

// AddEdge inserts edge (u, v); for undirected graphs both directions are
// stored. Self-loops panic.
func (g *Graph) AddEdge(u, v int) {
	g.check(u)
	g.check(v)
	if u == v {
		panic(fmt.Sprintf("graphs: self-loop at %d", u))
	}
	g.adj[u].Set(v)
	if !g.directed {
		g.adj[v].Set(u)
	}
}

// HasEdge reports whether edge (u, v) exists.
func (g *Graph) HasEdge(u, v int) bool {
	g.check(u)
	g.check(v)
	return g.adj[u].Get(v)
}

// Row returns node v's adjacency bitset (live; treat as read-only).
func (g *Graph) Row(v int) Bitset {
	g.check(v)
	return g.adj[v]
}

// OutDegree returns the out-degree (degree, when undirected) of v.
func (g *Graph) OutDegree(v int) int {
	g.check(v)
	return g.adj[v].Count()
}

// Neighbors returns the out-neighbours of v in increasing order.
func (g *Graph) Neighbors(v int) []int {
	g.check(v)
	out := make([]int, 0, g.adj[v].Count())
	g.adj[v].ForEach(func(i int) { out = append(out, i) })
	return out
}

// EdgeCount returns the number of edges (each undirected edge counted once).
func (g *Graph) EdgeCount() int {
	total := 0
	for v := 0; v < g.n; v++ {
		total += g.adj[v].Count()
	}
	if !g.directed {
		total /= 2
	}
	return total
}

// AdjacencyInt returns the adjacency matrix over the integers (0/1
// entries), with both orientations set for undirected graphs, as the paper
// defines in §3.1.
func (g *Graph) AdjacencyInt() *matrix.Dense[int64] {
	a := matrix.New[int64](g.n, g.n)
	for v := 0; v < g.n; v++ {
		row := a.Row(v)
		g.adj[v].ForEach(func(u int) { row[u] = 1 })
	}
	return a
}

// Clone returns a deep copy.
func (g *Graph) Clone() *Graph {
	out := &Graph{n: g.n, directed: g.directed, adj: make([]Bitset, g.n)}
	for i := range g.adj {
		out.adj[i] = g.adj[i].Clone()
	}
	return out
}

func (g *Graph) check(v int) {
	if v < 0 || v >= g.n {
		panic(fmt.Sprintf("graphs: node %d out of range [0, %d)", v, g.n))
	}
}

// Weighted is a weighted graph represented by its weight matrix over the
// min-plus convention: W[u][u] = 0, W[u][v] = edge weight, ring.Inf where
// no edge exists (§3.3 of the paper).
type Weighted struct {
	n        int
	directed bool
	w        *matrix.Dense[int64]
}

// NewWeighted returns a weighted graph with no edges.
func NewWeighted(n int, directed bool) *Weighted {
	if n < 0 {
		panic(fmt.Sprintf("graphs: negative size %d", n))
	}
	w := matrix.NewFilled[int64](n, n, ring.Inf)
	for i := 0; i < n; i++ {
		w.Set(i, i, 0)
	}
	return &Weighted{n: n, directed: directed, w: w}
}

// N returns the number of nodes.
func (g *Weighted) N() int { return g.n }

// Directed reports whether the graph is directed.
func (g *Weighted) Directed() bool { return g.directed }

// SetEdge sets the weight of edge (u, v); undirected graphs set both
// directions. Self-loops panic. Any weight is stored as given: one at or
// above ring.Inf means no edge (HasEdge reports false and
// WriteWeightedEdgeList omits it), and a negative weight of any size is an
// ordinary edge.
func (g *Weighted) SetEdge(u, v int, weight int64) {
	if u == v {
		panic(fmt.Sprintf("graphs: self-loop at %d", u))
	}
	g.w.Set(u, v, weight)
	if !g.directed {
		g.w.Set(v, u, weight)
	}
}

// Weight returns W(u, v) (ring.Inf when absent, 0 on the diagonal).
func (g *Weighted) Weight(u, v int) int64 { return g.w.At(u, v) }

// HasEdge reports whether a (finite-weight) edge (u, v) exists.
func (g *Weighted) HasEdge(u, v int) bool {
	return u != v && !ring.IsInf(g.w.At(u, v))
}

// Matrix returns the weight matrix (live; treat as read-only).
func (g *Weighted) Matrix() *matrix.Dense[int64] { return g.w }

// MaxWeight returns the largest finite edge weight (0 for edgeless graphs).
func (g *Weighted) MaxWeight() int64 {
	var max int64
	for u := 0; u < g.n; u++ {
		for v := 0; v < g.n; v++ {
			if u != v && g.HasEdge(u, v) && g.w.At(u, v) > max {
				max = g.w.At(u, v)
			}
		}
	}
	return max
}

// Unweighted returns the underlying unweighted graph (edges with any finite
// weight).
func (g *Weighted) Unweighted() *Graph {
	out := NewGraph(g.n, g.directed)
	for u := 0; u < g.n; u++ {
		for v := 0; v < g.n; v++ {
			if u != v && g.HasEdge(u, v) {
				if g.directed || u < v {
					out.AddEdge(u, v)
				}
			}
		}
	}
	return out
}

// UnitWeights lifts an unweighted graph to a weighted one with all edge
// weights 1.
func UnitWeights(g *Graph) *Weighted {
	out := NewWeighted(g.n, g.directed)
	for u := 0; u < g.n; u++ {
		g.adj[u].ForEach(func(v int) {
			out.w.Set(u, v, 1)
		})
	}
	return out
}
