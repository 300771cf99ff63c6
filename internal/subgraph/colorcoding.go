package subgraph

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
)

// DetectKCycleColourful reports whether the graph contains a colourful
// k-cycle under the given colouring c: V → [k] — a k-cycle on which every
// colour appears exactly once (Lemma 11). It evaluates the recursion
//
//	C(X) = ∨_{Y ⊆ X, |Y| = ⌈|X|/2⌉} C(Y) · A · C(X\Y)
//
// over the integers with entrywise clamping to {0,1}, using at most O(3^k)
// distributed products, and finally closes the cycle through an edge check.
func DetectKCycleColourful(net *clique.Network, engine ccmm.Engine, g *graphs.Graph, k int, colours []int) (bool, error) {
	if err := checkGraphSize(net, g); err != nil {
		return false, err
	}
	if err := validateK(g, k); err != nil {
		return false, err
	}
	if len(colours) != g.N() {
		return false, fmt.Errorf("subgraph: %d colours for %d nodes: %w", len(colours), g.N(), ccmm.ErrSize)
	}
	for v, c := range colours {
		if c < 0 || c >= k {
			return false, fmt.Errorf("subgraph: colour %d of node %d out of [0,%d): %w", c, v, k, ccmm.ErrSize)
		}
	}
	n := net.N()
	// The O(3^k) products run on the network's working set, and every
	// matrix of the recursion — all of them dead once the cycle is closed —
	// goes back to its free list for the next colouring.
	sc := ccmm.ScratchOf(net)
	a := ccmm.AdjacencyRows(sc, g, false)
	defer ccmm.PutMat(sc, a)
	var kept []*ccmm.RowMat[int64] // every C(X) and C(Y)·A, in the order made
	defer func() {
		for _, m := range kept {
			ccmm.PutMat(sc, m)
		}
	}()
	zeroed := func() *ccmm.RowMat[int64] {
		m := ccmm.GetMat[int64](sc, n)
		for _, row := range m.Rows {
			clear(row)
		}
		kept = append(kept, m)
		return m
	}

	// C(X) for all needed colour subsets, bottom-up by size.
	cMat := make(map[uint32]*ccmm.RowMat[int64])
	dCache := make(map[uint32]*ccmm.RowMat[int64]) // C(Y)·A, keyed by Y
	for i := 0; i < k; i++ {
		m := zeroed()
		for v := 0; v < n; v++ {
			if colours[v] == i {
				m.Rows[v][v] = 1
			}
		}
		cMat[1<<i] = m
	}
	sizes := neededSizes(k)

	full := uint32(1)<<k - 1
	for s := 2; s <= k; s++ {
		if !sizes[s] {
			continue
		}
		for x := uint32(1); x <= full; x++ {
			if bits.OnesCount32(x) != s || (s < k && !subsetNeeded(x, full, sizes, k)) {
				continue
			}
			h := (s + 1) / 2
			acc := zeroed()
			cMat[x] = acc
			for y := x & (x - 1); ; y = (y - 1) & x {
				// Iterate all non-empty proper submasks of x; keep |Y| = h.
				if bits.OnesCount32(y) == h {
					d, ok := dCache[y]
					if !ok {
						var err error
						d, err = ccmm.MulBoolWith(net, engine, sc, cMat[y], a)
						if err != nil {
							return false, err
						}
						dCache[y] = d
						kept = append(kept, d)
					}
					r, err := ccmm.MulBoolWith(net, engine, sc, d, cMat[x&^y])
					if err != nil {
						return false, err
					}
					net.ForEach(func(v int) {
						av, rv := acc.Rows[v], r.Rows[v]
						for j := 0; j < n; j++ {
							if rv[j] != 0 {
								av[j] = 1
							}
						}
					})
					ccmm.PutMat(sc, r)
				}
				if y == 0 {
					break
				}
			}
		}
	}

	// Close the cycle: a colourful k-cycle exists iff C([k])[u][v] = 1 and
	// (v, u) ∈ E for some u, v. Node u needs its in-edges: one exchange round.
	net.Phase("kcycle/close")
	colA := ccmm.Transpose(net, sc, a)
	defer ccmm.PutMat(sc, colA)
	cFull := cMat[full]
	flags := make([]bool, n)
	net.ForEach(func(u int) {
		row := cFull.Rows[u]
		inEdges := colA.Rows[u]
		for v := 0; v < n; v++ {
			if row[v] != 0 && inEdges[v] != 0 {
				flags[u] = true
				return
			}
		}
	})
	return net.Any(func(v int) bool { return flags[v] }), nil
}

// KCycleOpts configures the randomised colour-coding search of Theorem 3.
type KCycleOpts struct {
	// Colourings caps the number of random colourings tried; 0 selects the
	// paper's ⌈e^k · ln n⌉ (success probability 1 − n^{−Ω(1)}).
	Colourings int
	// Seed makes the colour choices reproducible.
	Seed uint64
}

// DetectKCycle reports whether the graph contains a (simple) cycle of
// length exactly k (Theorem 3). Each trial colours the nodes independently
// and uniformly at random — a purely local choice, costing no rounds — and
// runs the Lemma 11 colourful detection; a k-cycle is colourful with
// probability ≥ k!/k^k > e^{-k} per trial. No false positives are possible;
// the returned trial count tells how many colourings were evaluated.
func DetectKCycle(net *clique.Network, engine ccmm.Engine, g *graphs.Graph, k int, opts KCycleOpts) (found bool, trials int, err error) {
	if err := checkGraphSize(net, g); err != nil {
		return false, 0, err
	}
	if err := validateK(g, k); err != nil {
		return false, 0, err
	}
	max := opts.Colourings
	if max <= 0 {
		max = int(math.Ceil(math.Exp(float64(k)) * math.Log(float64(g.N())+2)))
	}
	colours := make([]int, g.N())
	for t := 0; t < max; t++ {
		rng := rand.New(rand.NewPCG(opts.Seed, uint64(t)))
		for v := range colours {
			colours[v] = rng.IntN(k)
		}
		ok, err := DetectKCycleColourful(net, engine, g, k, colours)
		if err != nil {
			return false, t, err
		}
		if ok {
			return true, t + 1, nil
		}
	}
	return false, max, nil
}

func validateK(g *graphs.Graph, k int) error {
	min := 3
	if g.Directed() {
		min = 2 // antiparallel edge pairs are directed 2-cycles
	}
	if k < min {
		return fmt.Errorf("subgraph: cycle length %d below minimum %d: %w", k, min, ccmm.ErrSize)
	}
	if k > 31 {
		return fmt.Errorf("subgraph: cycle length %d unsupported (subset masks are 32-bit): %w", k, ccmm.ErrSize)
	}
	return nil
}

// neededSizes returns the set of subset sizes the recursion touches when
// started from k: k splits into ⌈k/2⌉ and ⌊k/2⌋, recursively down to 1.
func neededSizes(k int) map[int]bool {
	sizes := make(map[int]bool)
	var rec func(s int)
	rec = func(s int) {
		if s < 1 || sizes[s] {
			return
		}
		sizes[s] = true
		if s > 1 {
			rec((s + 1) / 2)
			rec(s / 2)
		}
	}
	rec(k)
	return sizes
}

// subsetNeeded reports whether C(x) can appear in the recursion from the
// full colour set. A subset of size s is needed exactly when s is a needed
// size; since every subset of each needed size may arise as some Y or X\Y,
// size membership is the right filter.
func subsetNeeded(x, full uint32, sizes map[int]bool, k int) bool {
	return sizes[bits.OnesCount32(x)]
}
