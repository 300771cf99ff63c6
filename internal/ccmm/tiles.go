package ccmm

import (
	"cmp"
	"fmt"
	"slices"
)

// This file is the Lemma 12 tile machinery, generalised from the 4-cycle
// detector's degree-driven form to arbitrary per-node workloads: node y's
// tile side is derived from the weight w(y) = ca(y)·rb(y), the number of
// middle-index products routed through y. For the undirected adjacency
// square ca = rb = deg and everything reduces exactly to the paper's
// f(y) = max(1, 2^⌊log₂(deg(y)/4)⌋); the packing argument is unchanged
// because it only ever used Σ f(y)² ≤ Σ w(y)/16 + n.

// Tile is the square block A(y)×B(y) of the k×k index grid allocated to
// node y by Lemma 12: rows [Row, Row+F) index the nodes of A(y) and
// columns [Col, Col+F) the nodes of B(y).
type Tile struct {
	Y         int // owning node
	F         int // side length (power of two)
	Row, Col  int
	Allocated bool
}

// A returns the node set A(y) = {Row, …, Row+F-1}.
func (t Tile) A() []int { return seqInts(t.Row, t.F) }

// B returns the node set B(y) = {Col, …, Col+F-1}.
func (t Tile) B() []int { return seqInts(t.Col, t.F) }

func seqInts(start, count int) []int {
	out := make([]int, count)
	for i := range out {
		out[i] = start + i
	}
	return out
}

// TileSideFor maps a node's workload weight w = ca·rb to its tile side
// f = max(1, 2^⌊log₂(√w/4)⌋), so f² ≤ w/16 whenever w ≥ 16. For the
// adjacency square (w = deg²) this is the paper's max(1, 2^⌊log₂(deg/4)⌋)
// bit for bit, since √(deg²) = deg exactly. Weights below 1 carry no
// products and get no tile (side 0).
func TileSideFor(w int64) int {
	if w < 1 {
		return 0
	}
	r := isqrt64(w)
	if r < 8 {
		return 1
	}
	return Pow2Floor(int(r / 4))
}

// isqrt64 returns ⌊√x⌋ for x ≥ 0 using integer Newton iteration (exact, so
// the tile allocation is deterministic across platforms).
func isqrt64(x int64) int64 {
	if x < 2 {
		return x
	}
	r := x
	y := (r + 1) / 2
	for y < r {
		r = y
		y = (r + x/r) / 2
	}
	return r
}

// Pow2Floor returns the largest power of two ≤ x (1 for x ≤ 1).
func Pow2Floor(x int) int {
	p := 1
	for p*2 <= x {
		p *= 2
	}
	return p
}

// AllocateTiles packs one side-fs[y] tile per node with fs[y] ≥ 1 into the
// k×k grid, k = n rounded down to a power of two, and returns the
// placements (fs[y] = 0 means node y needs no tile). Sides must be powers
// of two. Placement is a deterministic buddy-style quadtree fill in
// decreasing size order, which succeeds whenever Σ fs[y]² ≤ k² — the
// caller's density bound (Σ w(y) < 2n² with sides from TileSideFor, for
// n ≥ 8) guarantees it.
func AllocateTiles(fs []int, n int) ([]Tile, error) {
	k := Pow2Floor(n)
	tiles := make([]Tile, len(fs))
	order := make([]int, 0, len(fs))
	var area int
	for y, f := range fs {
		tiles[y] = Tile{Y: y}
		if f < 1 {
			continue
		}
		tiles[y].F = f
		order = append(order, y)
		area += f * f
	}
	if area > k*k {
		return nil, fmt.Errorf("ccmm: tile area %d exceeds %d² (density bound violated)", area, k)
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(tiles[b].F, tiles[a].F); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	// Buddy allocator over the k×k square: free lists of empty s×s blocks.
	free := make(map[int][][2]int)
	free[k] = [][2]int{{0, 0}}
	place := func(s int) ([2]int, bool) {
		sz := s
		for sz <= k && len(free[sz]) == 0 {
			sz *= 2
		}
		if sz > k {
			return [2]int{}, false
		}
		blk := free[sz][len(free[sz])-1]
		free[sz] = free[sz][:len(free[sz])-1]
		for sz > s {
			sz /= 2
			r, c := blk[0], blk[1]
			free[sz] = append(free[sz], [2]int{r + sz, c}, [2]int{r, c + sz}, [2]int{r + sz, c + sz})
		}
		return blk, true
	}
	for _, y := range order {
		blk, ok := place(tiles[y].F)
		if !ok {
			return nil, fmt.Errorf("ccmm: tile packing failed for node %d (internal invariant)", y)
		}
		tiles[y].Row, tiles[y].Col = blk[0], blk[1]
		tiles[y].Allocated = true
	}
	return tiles, nil
}

// chunkBounds splits a total-element list into f near-equal contiguous
// pieces of size ≤ ⌈total/f⌉ and returns the half-open bounds of piece i.
// Every node computes the same bounds from the globally known census, which
// is what keeps the tile routing oblivious after the census round.
func chunkBounds(total, f, i int) (lo, hi int) {
	per := (total + f - 1) / f
	lo = i * per
	if lo >= total {
		return total, total
	}
	hi = lo + per
	if hi > total {
		hi = total
	}
	return lo, hi
}
