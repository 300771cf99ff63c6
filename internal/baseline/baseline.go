// Package baseline implements the combinatorial prior-work algorithms that
// Table 1 of the paper compares against:
//
//   - DolevTriangles: the deterministic O(n^{1/3})-round triangle counting
//     of Dolev, Lenzen and Peled ("Tri, tri again", DISC 2012): the vertex
//     set is split into c = ⌈n^{1/3}⌉ parts and each node examines the
//     edges between one triple of parts.
//   - NaiveAPSP: the learn-everything APSP baseline (Θ(n) rounds): every
//     node gathers the full weight matrix and runs Dijkstra locally. The
//     paper's Table 1 cites Nanongkai's Õ(√n)-round (2+o(1))-approximation
//     as combinatorial prior work; that algorithm is its own paper, so this
//     repository uses the naive exact baseline (plus the semiring 3D APSP)
//     as the combinatorial comparison points — see DESIGN.md.
package baseline

import (
	"container/heap"
	"fmt"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
	"github.com/algebraic-clique/algclique/internal/routing"
)

// DolevTriangles counts triangles deterministically in O(n^{1/3}) rounds.
// Undirected graphs only (as in the original paper).
//
// Parts are the contiguous ranges S_i of size ⌈n/c⌉; the ordered triples
// (i ≤ j ≤ k) are assigned round-robin to nodes, each handler receives the
// three bipartite edge sets it needs (O(n^{4/3}) words per node, routed),
// and counts the triangles a < b < c with a ∈ S_i, b ∈ S_j, c ∈ S_k.
func DolevTriangles(net *clique.Network, g *graphs.Graph) (int64, error) {
	if g.Directed() {
		return 0, fmt.Errorf("baseline: DolevTriangles needs an undirected graph: %w", ccmm.ErrSize)
	}
	n := net.N()
	if g.N() != n {
		return 0, fmt.Errorf("baseline: graph has %d nodes on an %d-node clique: %w", g.N(), n, ccmm.ErrSize)
	}
	if n == 1 {
		return 0, nil
	}
	c := ccmm.CbrtCeil(n)
	per := (n + c - 1) / c
	part := func(v int) int { return v / per }
	partRange := func(i int) (int, int) {
		lo := i * per
		hi := lo + per
		if hi > n {
			hi = n
		}
		return lo, hi
	}

	// Enumerate sorted triples and their handlers.
	type triple struct{ i, j, k int }
	var triples []triple
	for i := 0; i < c; i++ {
		for j := i; j < c; j++ {
			for k := j; k < c; k++ {
				triples = append(triples, triple{i, j, k})
			}
		}
	}
	handler := func(idx int) int { return idx % n }

	// Each node u in part p sends, for every triple containing p, its
	// adjacency row restricted to the other parts of the triple. The
	// handler reconstructs the three bipartite edge sets from sender ids.
	net.Phase("dolev/distribute")
	msgs := make([][][]clique.Word, n)
	for v := range msgs {
		msgs[v] = make([][]clique.Word, n)
	}
	net.ForEach(func(u int) {
		p := part(u)
		row := g.Row(u)
		for idx, t := range triples {
			if t.i != p && t.j != p && t.k != p {
				continue
			}
			h := handler(idx)
			// Send the row restricted to all parts of the triple (the
			// handler needs edges within and across the triple's parts to
			// enumerate a < b < c with edges among S_i, S_j, S_k).
			for _, pp := range []int{t.i, t.j, t.k} {
				lo, hi := partRange(pp)
				for x := lo; x < hi; x++ {
					if row.Get(x) {
						msgs[u][h] = append(msgs[u][h], clique.Word(x))
					} else {
						msgs[u][h] = append(msgs[u][h], clique.Word(0xffffffff))
					}
				}
			}
		}
	})
	in := routing.Exchange(net, routing.Auto, msgs)

	// Handlers reconstruct adjacency among their triple's parts and count.
	net.Phase("dolev/count")
	partial := make([]int64, n)
	net.ForEach(func(h int) {
		// A given (u, h) link carries u's slices for all triples u sent to
		// h, concatenated in triple-index order; decode with per-sender
		// cursors advancing in the same order.
		cursors := make(map[int]int)
		adj := make(map[int]map[int]bool)
		for idx, t := range triples {
			if handler(idx) != h {
				continue
			}
			parts := []int{t.i, t.j, t.k}
			var members []int
			for _, pp := range parts {
				lo, hi := partRange(pp)
				for u := lo; u < hi; u++ {
					members = append(members, u)
				}
			}
			for _, u := range dedupe(members) {
				words := in[h][u]
				cur := cursors[u]
				if adj[u] == nil {
					adj[u] = make(map[int]bool)
				}
				for _, pp := range parts {
					lo, hi := partRange(pp)
					for x := lo; x < hi; x++ {
						if words[cur] != 0xffffffff {
							adj[u][int(words[cur])] = true
						}
						cur++
					}
				}
				cursors[u] = cur
			}
			// Count a < b < c spanning the triple's parts.
			iLo, iHi := partRange(t.i)
			jLo, jHi := partRange(t.j)
			kLo, kHi := partRange(t.k)
			for a := iLo; a < iHi; a++ {
				for b := max(jLo, a+1); b < jHi; b++ {
					if !adj[a][b] {
						continue
					}
					for cc := max(kLo, b+1); cc < kHi; cc++ {
						if adj[a][cc] && adj[b][cc] {
							partial[h]++
						}
					}
				}
			}
		}
	})
	vals := make([]clique.Word, n)
	for v := 0; v < n; v++ {
		vals[v] = clique.Word(partial[v])
	}
	var total int64
	for _, w := range net.BroadcastWord(vals) {
		total += int64(w)
	}
	return total, nil
}

func dedupe(xs []int) []int {
	seen := make(map[int]bool, len(xs))
	out := xs[:0]
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// NaiveAPSP gathers the whole weight matrix at every node (Θ(n) rounds)
// and solves single-source shortest paths locally with Dijkstra. Weights
// must be non-negative.
func NaiveAPSP(net *clique.Network, g *graphs.Weighted) (*ccmm.RowMat[int64], error) {
	n := net.N()
	if g.N() != n {
		return nil, fmt.Errorf("baseline: graph has %d nodes on an %d-node clique: %w", g.N(), n, ccmm.ErrSize)
	}
	w := g.Matrix()
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && !ring.IsInf(w.At(u, v)) && w.At(u, v) < 0 {
				return nil, fmt.Errorf("baseline: negative weight (%d,%d); NaiveAPSP uses Dijkstra: %w", u, v, ccmm.ErrSize)
			}
		}
	}
	net.Phase("naive-apsp/gather")
	lens := make([]int64, n)
	for v := range lens {
		lens[v] = int64(n)
	}
	full := ccmm.Learn(net, w, lens, func(v int) []clique.Word {
		vec := make([]clique.Word, n)
		for j, x := range w.Row(v) {
			vec[j] = clique.Word(x)
		}
		return vec
	}, func(all [][]clique.Word) *matrix.Dense[int64] {
		out := matrix.New[int64](n, n)
		for v, vec := range all {
			row := out.Row(v)
			for j, x := range vec {
				row[j] = int64(x)
			}
		}
		return out
	})

	net.Phase("naive-apsp/dijkstra")
	out := ccmm.NewRowMat[int64](n)
	net.ForEach(func(src int) {
		out.Rows[src] = dijkstra(full, src)
	})
	return out, nil
}

type pqItem struct {
	v int
	d int64
}

type pq []pqItem

func (p pq) Len() int           { return len(p) }
func (p pq) Less(i, j int) bool { return p[i].d < p[j].d }
func (p pq) Swap(i, j int)      { p[i], p[j] = p[j], p[i] }
func (p *pq) Push(x any)        { *p = append(*p, x.(pqItem)) }
func (p *pq) Pop() any          { old := *p; x := old[len(old)-1]; *p = old[:len(old)-1]; return x }

func dijkstra(w *matrix.Dense[int64], src int) []int64 {
	n := w.Rows()
	dist := make([]int64, n)
	done := make([]bool, n)
	for i := range dist {
		dist[i] = ring.Inf
	}
	dist[src] = 0
	h := &pq{{v: src, d: 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(pqItem)
		if done[it.v] {
			continue
		}
		done[it.v] = true
		row := w.Row(it.v)
		for u := 0; u < n; u++ {
			if u == it.v || done[u] || ring.IsInf(row[u]) {
				continue
			}
			if nd := it.d + row[u]; nd < dist[u] {
				dist[u] = nd
				heap.Push(h, pqItem{v: u, d: nd})
			}
		}
	}
	return dist
}
