package girth

import (
	"math/bits"
	"sync"

	"github.com/algebraic-clique/algclique/internal/graphs"
)

// bfs holds the sparse branch's local solve buffers: per-node BFS depth
// (−1 unvisited) and parent, and the queue, whose prefix is every node the
// current root's search reached. Solves draw one from a pool, so a warm
// call allocates nothing.
type bfs struct {
	dist, parent, queue []int32
}

var bfsPool = sync.Pool{New: func() any { return new(bfs) }}

// local returns the girth of the undirected graph g and true, or (0, false)
// for an acyclic one: graphs.GirthRef's per-root BFS bound, exact for the
// same reason — a non-tree edge uv closes a walk of dist[u] + dist[v] + 1 ≥
// girth edges, and a root on a shortest cycle attains it. A root's search
// stops once the node it expands lies at depth d with 2d ≥ the best cycle
// so far (every edge it or a later node closes makes a walk of at least
// 2d), and the whole solve stops at a triangle, which nothing beats.
func local(g *graphs.Graph) (int, bool) {
	n := g.N()
	s := bfsPool.Get().(*bfs)
	defer bfsPool.Put(s)
	if cap(s.dist) < n {
		s.dist, s.parent, s.queue = make([]int32, n), make([]int32, n), make([]int32, n)
	}
	dist, parent, queue := s.dist[:n], s.parent[:n], s.queue[:n]
	for i := range dist {
		dist[i] = -1
	}
	best := int32(-1)
	for root := 0; root < n && best != 3; root++ {
		dist[root], parent[root], queue[0] = 0, -1, int32(root)
		head, tail := 0, 1
	search:
		for head < tail {
			u := queue[head]
			head++
			du := dist[u]
			if best != -1 && 2*du >= best {
				break
			}
			for wi, w := range g.Row(int(u)) {
				for ; w != 0; w &= w - 1 {
					v := int32(wi*64 + bits.TrailingZeros64(w))
					switch {
					case dist[v] == -1:
						dist[v], parent[v] = du+1, u
						queue[tail] = v
						tail++
					case v != parent[u]:
						if c := du + dist[v] + 1; best == -1 || c < best {
							best = c
							if best == 3 {
								break search
							}
						}
					}
				}
			}
		}
		for _, v := range queue[:tail] {
			dist[v] = -1
		}
	}
	if best == -1 {
		return 0, false
	}
	return int(best), true
}
