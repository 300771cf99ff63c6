package algclique

import (
	"io"

	"github.com/algebraic-clique/algclique/internal/graphs"
)

// Graph is an unweighted simple graph on nodes 0..n-1; node v's adjacency
// row is its local input in the congested-clique model.
type Graph = graphs.Graph

// Weighted is a weighted graph represented by its min-plus weight matrix
// (0 on the diagonal, Inf for missing edges).
type Weighted = graphs.Weighted

// NewGraph returns an empty graph on n nodes.
func NewGraph(n int, directed bool) *Graph { return graphs.NewGraph(n, directed) }

// NewWeighted returns an edgeless weighted graph on n nodes.
func NewWeighted(n int, directed bool) *Weighted { return graphs.NewWeighted(n, directed) }

// UnitWeights lifts an unweighted graph to unit edge weights.
func UnitWeights(g *Graph) *Weighted { return graphs.UnitWeights(g) }

// GNP returns an Erdős–Rényi G(n, p) graph drawn with the given seed.
func GNP(n int, p float64, directed bool, seed uint64) *Graph {
	return graphs.GNP(n, p, directed, seed)
}

// Cycle returns the n-cycle (directed: oriented forward).
func Cycle(n int, directed bool) *Graph { return graphs.Cycle(n, directed) }

// Path returns the n-node path.
func Path(n int, directed bool) *Graph { return graphs.Path(n, directed) }

// Complete returns K_n.
func Complete(n int, directed bool) *Graph { return graphs.Complete(n, directed) }

// CompleteBipartite returns K_{a,b}.
func CompleteBipartite(a, b int) *Graph { return graphs.CompleteBipartite(a, b) }

// Torus returns the rows×cols toroidal grid (girth 4 for dims ≥ 4).
func Torus(rows, cols int) *Graph { return graphs.Torus(rows, cols) }

// Petersen returns the Petersen graph (girth 5).
func Petersen() *Graph { return graphs.Petersen() }

// Heawood returns the Heawood graph (girth 6, extremal C4-free).
func Heawood() *Graph { return graphs.Heawood() }

// Tree returns a random tree.
func Tree(n int, seed uint64) *Graph { return graphs.Tree(n, seed) }

// PlantedCycle returns a sparse random graph with a planted k-cycle and
// the planted nodes in cycle order.
func PlantedCycle(n, k int, p float64, directed bool, seed uint64) (*Graph, []int) {
	return graphs.PlantedCycle(n, k, p, directed, seed)
}

// PreferentialAttachment returns a skew-degree random graph.
func PreferentialAttachment(n, m int, seed uint64) *Graph {
	return graphs.PreferentialAttachment(n, m, seed)
}

// RandomWeighted returns a weighted G(n, p) graph with weights in [1, maxW].
func RandomWeighted(n int, p float64, maxW int64, directed bool, seed uint64) *Weighted {
	return graphs.RandomWeighted(n, p, maxW, directed, seed)
}

// RandomConnectedWeighted returns a strongly connected weighted graph.
func RandomConnectedWeighted(n int, p float64, maxW int64, directed bool, seed uint64) *Weighted {
	return graphs.RandomConnectedWeighted(n, p, maxW, directed, seed)
}

// ReadGraph parses the plain edge-list format written by WriteGraph:
// a "n <count> directed|undirected" header followed by "<u> <v>" lines
// ('#' comments allowed). A count above 16384 (graphs.MaxReadNodes) is an
// error: the adjacency is allocated from the header alone.
func ReadGraph(r io.Reader) (*Graph, error) { return graphs.ReadEdgeList(r) }

// WriteGraph serialises a graph in the ReadGraph format.
func WriteGraph(w io.Writer, g *Graph) error { return graphs.WriteEdgeList(w, g) }

// ReadWeightedGraph parses the weighted edge-list format written by
// WriteWeightedGraph ("n <count> <kind> weighted" header, "<u> <v> <w>"
// lines). A count above 2048 (graphs.MaxReadWeightedNodes, a 32 MiB
// weight matrix) is an error.
func ReadWeightedGraph(r io.Reader) (*Weighted, error) { return graphs.ReadWeightedEdgeList(r) }

// WriteWeightedGraph serialises a weighted graph in the ReadWeightedGraph
// format.
func WriteWeightedGraph(w io.Writer, g *Weighted) error { return graphs.WriteWeightedEdgeList(w, g) }

// padGraph embeds g into a clique of size n by adding isolated nodes; all
// subgraph counts, cycle structure, and pairwise distances among original
// nodes are preserved.
func padGraph(g *Graph, n int) *Graph {
	if g.N() == n {
		return g
	}
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

// padWeighted embeds a weighted graph into a larger clique with the new
// nodes unreachable.
func padWeighted(g *Weighted, n int) *Weighted {
	if g.N() == n {
		return g
	}
	out := graphs.NewWeighted(n, g.Directed())
	for u := 0; u < g.N(); u++ {
		for v := 0; v < g.N(); v++ {
			if u != v && g.HasEdge(u, v) && (g.Directed() || u < v) {
				out.SetEdge(u, v, g.Weight(u, v))
			}
		}
	}
	return out
}
