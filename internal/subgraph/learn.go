package subgraph

import (
	"math/bits"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// HigherCounts is the learn step's count round: node v broadcasts k_v, the
// number of its neighbours u > v in the undirected graph g, and every node
// returns with all of them. Σ k_v is the edge count, so a reduction that
// needs m takes it from here and pays no second round.
func HigherCounts(net *clique.Network, g *graphs.Graph) []int64 {
	n := net.N()
	words := make([]clique.Word, n)
	for v := range words {
		words[v] = clique.Word(higher(g.Row(v), v))
	}
	counts := make([]int64, n)
	for v, w := range net.BroadcastWord(words) {
		counts[v] = int64(w)
	}
	return counts
}

// higher returns |{u > v : u ∈ row}|.
func higher(row graphs.Bitset, v int) int {
	wi := (v + 1) / 64
	if wi >= len(row) {
		return 0
	}
	c := bits.OnesCount64(row[wi] &^ (1<<uint((v+1)%64) - 1))
	for _, w := range row[wi+1:] {
		c += bits.OnesCount64(w)
	}
	return c
}

// rowForm is how node v's higher-neighbour row ships on an n-node clique
// when it holds k of them: as the neighbours' ids at b = bits.Len(n−1)
// bits each on ring.PackedInt{Bits: b}, or as a bitmap of the n−v−1
// columns v+1 … n−1 on ring.PackedBit, whichever takes fewer words (ids on
// a tie). Every node computes it from k, which the count round broadcast,
// and n, so no header travels. words is the row's length.
func rowForm(n, v int, k int64) (bitmap bool, words int64) {
	ids := int64(idCodec(n).EncodedLen(int(k)))
	cols := int64(ring.PackedBit{}.EncodedLen(n - v - 1))
	if cols < ids {
		return true, cols
	}
	return false, ids
}

// idCodec ships a node id of an n-node clique in bits.Len(n−1) bits (at
// least one).
func idCodec(n int) ring.PackedInt {
	return ring.PackedInt{Bits: max(1, bits.Len(uint(n-1)))}
}

// LearnGraph makes every node learn the whole undirected graph g, each
// edge shipped once, from its lower endpoint, in that node's row form
// (rowForm) — counts are the count round's (HigherCounts) — and returns
// the graph every node then holds (ccmm.Learn): on the wire transport the
// one rebuilt from the words that arrived, on the direct transport g
// itself.
func LearnGraph(net *clique.Network, g *graphs.Graph, counts []int64) *graphs.Graph {
	n := net.N()
	lens := make([]int64, n)
	for v, k := range counts {
		_, lens[v] = rowForm(n, v, k)
	}
	return ccmm.Learn(net, g, lens, func(v int) []clique.Word {
		if bitmap, _ := rowForm(n, v, counts[v]); bitmap {
			cols := make([]int64, n-v-1)
			for i := range cols {
				if g.HasEdge(v, v+1+i) {
					cols[i] = 1
				}
			}
			return ring.PackedBit{}.EncodeSlice(nil, cols)
		}
		ids := make([]int64, 0, counts[v])
		g.Row(v).ForEach(func(u int) {
			if u > v {
				ids = append(ids, int64(u))
			}
		})
		return idCodec(n).EncodeSlice(nil, ids)
	}, func(all [][]clique.Word) *graphs.Graph {
		rebuilt := graphs.NewGraph(n, false)
		for v, ws := range all {
			if bitmap, _ := rowForm(n, v, counts[v]); bitmap {
				cols := make([]int64, n-v-1)
				ring.PackedBit{}.DecodeSlice(cols, ws)
				for i, c := range cols {
					if c != 0 {
						rebuilt.AddEdge(v, v+1+i)
					}
				}
				continue
			}
			ids := make([]int64, counts[v])
			idCodec(n).DecodeSlice(ids, ws)
			for _, u := range ids {
				rebuilt.AddEdge(v, int(u))
			}
		}
		return rebuilt
	})
}
