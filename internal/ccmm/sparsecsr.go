package ccmm

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// This file is the CSR operand plane: the sparse tile engine of sparse.go
// re-expressed over matrix.CSR operands, so a product on a ρ-nonzero input
// costs Θ(n + traffic) memory instead of the Θ(n²) a RowMat forces. Node v
// logically owns row v of each operand, exactly the RowMat convention, but
// rows are CSR windows (column indices + values) rather than dense slices.
//
// The phase structure is sparse.go's — transpose, census, spread, forward,
// gather, accumulate — with three scale-driven changes:
//
//   - The census is free. A CSR row's nonzero count is a RowPtr difference,
//     so the per-row counts feeding the census broadcast cost no scan; the
//     broadcast round itself (sparseCensus, shared verbatim) is unchanged.
//   - No n×n anything. The dense engine stages messages in d×d payload and
//     view matrices and receives through all-sources probes; here every
//     node packs its outgoing chunks contiguously into one per-node arena,
//     per-message windows live in per-node slot tables sized to the node's
//     own traffic, and receivers walk the port's link-level each/from,
//     whose cost is proportional to the traffic actually delivered (the
//     sparse-link network makes the same guarantee underneath).
//   - Exchanges bypass the routing layer (whose Exchange* entries take n×n
//     message matrices) and go out through the port's link-level sends:
//     per-link loads are already balanced by the tile allocation itself —
//     a side-f tile splits its weight-w workload into ≤ 2f chunks of
//     ~√w·4 elements each — so the two-phase Lenzen rebalancing has
//     nothing to win here.
//
// The result comes back as a fresh CSR (canonical: strictly increasing
// columns, no stored semiring zeros), bit-identical to compressing the
// dense engines' product, because the accumulation order per output cell is
// a permutation of the dense engine's and every shipped algebra's ⊕ is
// order-independent. Like every engine it is one body over the exchange
// port, so both transports — and TransportVerify's dual run — come with it.

// csrDensifyCap is the largest clique on which the density-aware CSR
// planner may fall back to a dense engine (which materialises Θ(n²)
// operands and product). Beyond it a too-dense product fails with
// ErrTooDense instead of silently allocating what the CSR plane exists to
// avoid; callers at that scale asked for sparse-or-nothing.
const csrDensifyCap = 8192

// CSRProduct is the result union of the density-aware CSR entry points:
// exactly one field is set. Sparse products stay CSR; products the planner
// routed (or fell back) to a dense engine come back as the dense row
// matrix that engine produced.
type CSRProduct[T any] struct {
	Sparse *matrix.CSR[T]
	Dense  *RowMat[T]
}

// IsSparse reports whether the product stayed on the CSR path.
func (p CSRProduct[T]) IsSparse() bool { return p.Sparse != nil }

// csrCheck validates a CSR operand against the clique size.
func csrCheck[T any](m *matrix.CSR[T], n int) error {
	if m.N != n {
		return fmt.Errorf("ccmm: %d×%d CSR operand on an %d-node clique: %w", m.N, m.N, n, ErrSize)
	}
	if err := m.Validate(); err != nil {
		return fmt.Errorf("ccmm: malformed CSR operand: %v: %w", err, ErrSize)
	}
	return nil
}

// SparseMulCSR computes P = S·T over an arbitrary semiring with the sparse
// tile engine, end-to-end on CSR operands: the same round structure and
// density bound as SparseMul (Σ ca(y)·rb(y) < 2n², ErrTooDense otherwise),
// but Θ(n + ρ) memory — no dense n×n buffer is ever allocated, which the
// DenseAllocs counter asserts. Requires n ≥ 8. A nil Val on an operand
// means every stored entry is the semiring one (the adjacency convention).
func SparseMulCSR[T any](net *clique.Network, sc *Scratch, sr ring.Semiring[T], codec ring.Codec[T], s, t *matrix.CSR[T]) (*matrix.CSR[T], error) {
	return runProduct(net, sc, func(net *clique.Network, sc *Scratch) (*matrix.CSR[T], error) {
		return sparseMulCSR[T](net, sc, sr, codec, s, t)
	})
}

// sortedIndex returns the position of y in an ascending list that contains
// it (the per-node tile lists rowYs/colYs are built ascending).
func sortedIndex(list []int32, y int32) int {
	lo, hi := 0, len(list)
	for lo < hi {
		mid := (lo + hi) / 2
		if list[mid] < y {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// csrSpreadChunks builds every tile owner's spread traffic: node y packs
// its a(y)-chunks (and, for destinations in both tile ranges, the combined
// A-then-B chunk) contiguously into the per-node arena tts.bufs3[y], with
// one window per destination in the slot table tts.slots3[y] — row-range
// destinations at [0, F), column-only destinations at [F, 2F). The arena is
// immutable until the product ends: on the direct transport, receivers
// (and their forwardees) hold windows into it through the gather.
func csrSpreadChunks[T any](net *clique.Network, sp *sparseState, tts *typedScratch[ring.Tuple[T]], t *matrix.CSR[T], one T) {
	net.ForEach(func(y int) {
		tl := sp.tiles[y]
		if !tl.Allocated {
			nodeSlots(tts.slots3, y, 0)
			return
		}
		aL := tts.bufs[y][:sp.ca[y]]
		cols, vals := t.Row(y)
		bL := ring.AppendTuples(nodeBuf(tts.bufs2, y, sp.rb[y])[:0], cols, vals, one)
		tts.bufs2[y] = bL
		arena := nodeBuf(tts.bufs3, y, sp.ca[y]+sp.rb[y])
		ws := nodeSlots(tts.slots3, y, 2*tl.F)
		off := 0
		for i := 0; i < tl.F; i++ {
			dst := tl.Row + i
			lo, hi := chunkBounds(sp.ca[y], tl.F, i)
			start := off
			off += copy(arena[off:], aL[lo:hi])
			if j := dst - tl.Col; j >= 0 && j < tl.F {
				blo, bhi := chunkBounds(sp.rb[y], tl.F, j)
				off += copy(arena[off:], bL[blo:bhi])
			}
			if off > start {
				ws[i] = arena[start:off]
			}
		}
		for j := 0; j < tl.F; j++ {
			dst := tl.Col + j
			if i := dst - tl.Row; i >= 0 && i < tl.F {
				continue // combined with the A-part above
			}
			blo, bhi := chunkBounds(sp.rb[y], tl.F, j)
			if bhi > blo {
				start := off
				off += copy(arena[off:], bL[blo:bhi])
				ws[tl.F+j] = arena[start:off]
			}
		}
	})
}

// byIdx orders tuples by index alone, for the stable sorts below: a generic
// comparison the sort instantiates directly, so neither reflection nor a
// per-call closure stands between the sort and the int32 key.
func byIdx[V any](a, b ring.Tuple[V]) int { return cmp.Compare(a.Idx, b.Idx) }

// csrGatherRuns sorts node b's emitted (x, (z, v)) pairs by output row
// (stable, so the deterministic emit order survives within a row), projects
// the (z, v) halves into arena — which must have length len(pairs) — and
// records one window per distinct output row in tts.slots3[b] with the row
// indices in xts.bufs[b]. The spread slots the table previously held are
// dead by gather time (receivers copied the window headers out at spread
// receive), so the table is reused.
func csrGatherRuns[T any](tts *typedScratch[ring.Tuple[T]], xts *typedScratch[int32], b int, pairs []ring.Tuple[ring.Tuple[T]], arena []ring.Tuple[T]) {
	slices.SortStableFunc(pairs, byIdx[ring.Tuple[T]])
	runs := 0
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && pairs[j].Idx == pairs[i].Idx {
			j++
		}
		runs++
		i = j
	}
	gs := nodeSlots(tts.slots3, b, runs)
	xs := nodeBuf(xts.bufs, b, runs)
	r := 0
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && pairs[j].Idx == pairs[i].Idx {
			j++
		}
		for k := i; k < j; k++ {
			arena[k] = pairs[k].Val
		}
		gs[r] = arena[i:j]
		xs[r] = pairs[i].Idx
		r++
		i = j
	}
	xts.bufs[b] = xs
}

// csrFold sorts node x's received (z, v) tuples by column (stable), folds
// equal-column runs with the semiring addition, and drops sums equal to the
// semiring zero — keeping the output canonical, so it is bit-identical to
// compressing a dense engine's product row. Returns the folded prefix of
// acc.
func csrFold[T any](sr ring.Semiring[T], zero T, acc []ring.Tuple[T]) []ring.Tuple[T] {
	slices.SortStableFunc(acc, byIdx[T])
	out := acc[:0]
	for i := 0; i < len(acc); {
		v := acc[i].Val
		j := i + 1
		for ; j < len(acc) && acc[j].Idx == acc[i].Idx; j++ {
			v = sr.Add(v, acc[j].Val)
		}
		if !sr.Equal(v, zero) {
			out = append(out, ring.Tuple[T]{Idx: acc[i].Idx, Val: v})
		}
		i = j
	}
	return out
}

// csrAssemble builds the fresh output CSR from the per-node folded rows
// left in tts.bufs2 (lengths in sp.ca): a single-threaded RowPtr prefix sum
// and a parallel flat copy. Outputs are never pooled.
func csrAssemble[T any](net *clique.Network, sp *sparseState, tts *typedScratch[ring.Tuple[T]], n int) *matrix.CSR[T] {
	out := matrix.NewCSR[T](n)
	var nnz int64
	for x := 0; x < n; x++ {
		nnz += int64(sp.ca[x])
		out.RowPtr[x+1] = nnz
	}
	out.Col = make([]int32, nnz)
	out.Val = make([]T, nnz)
	net.ForEach(func(x int) {
		lo := out.RowPtr[x]
		for i, tp := range tts.bufs2[x][:sp.ca[x]] {
			out.Col[lo+int64(i)] = tp.Idx
			out.Val[lo+int64(i)] = tp.Val
		}
	})
	return out
}

// sparseMulCSR is the engine body: tuple windows into per-node arenas go
// out through the port's link-level sends — by reference on the direct
// transport, their wire cost charged from the TupleCodec EncodedLen sums
// the wire transport pays for real.
func sparseMulCSR[T any](net *clique.Network, sc *Scratch, sr ring.Semiring[T], codec ring.Codec[T], s, t *matrix.CSR[T]) (*matrix.CSR[T], error) {
	n := net.N()
	if err := csrCheck(s, n); err != nil {
		return nil, err
	}
	if err := csrCheck(t, n); err != nil {
		return nil, err
	}
	if n < minSparseN {
		return nil, fmt.Errorf("ccmm: sparse engine needs n ≥ %d for the Lemma 12 packing, got %d: %w", minSparseN, n, ErrSize)
	}
	bc := ring.AsBulk[T](codec)
	vals := newPort[T](net, sc, chunks[T]{bc, 1})
	tups := newPort[ring.Tuple[T]](net, sc, tupleFormat(sc, bc, n))
	tts := tups.ts
	pts := typedFrom[ring.Tuple[ring.Tuple[T]]](sc)
	xts := typedFrom[int32](sc)
	sp := sc.sparse()
	zero, one := sr.Zero(), sr.One()
	growBufs(&tts.bufs, n)
	growBufs(&tts.bufs2, n)
	growBufs(&tts.bufs3, n)
	growBufs(&pts.bufs, n)
	growBufs(&xts.bufs, n)
	growBufs(&tts.slots, n)
	growBufs(&tts.slots2, n)
	growBufs(&tts.slots3, n)
	sp.ca = growInts(sp.ca, n)
	sp.rb = growInts(sp.rb, n)

	// Phase 1: transpose — each stored S[x][y] rides to column owner y as a
	// one-element message read straight out of the operand's value array (a
	// shared one-cell for nil-Val operands). rb is free on CSR.
	net.Phase("mmcsr/transpose")
	net.ForEach(func(v int) { sp.rb[v] = t.RowNNZ(v) })
	for x := 0; x < n; x++ {
		for i := s.RowPtr[x]; i < s.RowPtr[x+1]; i++ {
			if s.Val != nil {
				vals.sendVal(x, int(s.Col[i]), &s.Val[i])
			} else {
				vals.sendVal(x, int(s.Col[i]), &one)
			}
		}
	}
	mailT := net.Flush()
	net.ForEach(func(y int) {
		aL := tts.bufs[y][:0]
		vals.eachVal(mailT, y, func(src int, v T) {
			aL = append(aL, ring.Tuple[T]{Idx: int32(src), Val: v})
		})
		tts.bufs[y] = aL
		sp.ca[y] = len(aL)
	})

	// Phase 2: census + tile tables (shared with the dense sparse engine;
	// the density bound is enforced here).
	if err := sparseCensus(net, sp, n); err != nil {
		return nil, err
	}

	// Phase 3: spread — arenas and windows, then one message per window.
	net.Phase("mmcsr/spread")
	csrSpreadChunks[T](net, sp, tts, t, one)
	for y := 0; y < n; y++ {
		tl := sp.tiles[y]
		if !tl.Allocated {
			continue
		}
		ws := tts.slots3[y]
		for i := 0; i < tl.F; i++ {
			if len(ws[i]) > 0 {
				tups.send(y, tl.Row+i, &ws[i])
			}
		}
		for j := 0; j < tl.F; j++ {
			if len(ws[tl.F+j]) > 0 {
				tups.send(y, tl.Col+j, &ws[tl.F+j])
			}
		}
	}
	mailS := net.Flush()
	net.ForEach(func(p int) {
		rl := sp.rowYs[sp.rowOff[p]:sp.rowOff[p+1]]
		cl := sp.colYs[sp.colOff[p]:sp.colOff[p+1]]
		wa := nodeSlots(tts.slots, p, len(rl))
		wb := nodeSlots(tts.slots2, p, len(cl))
		tups.each(mailS, p, func(src int, win []ring.Tuple[T]) {
			ka, kb := spreadCounts(sp.tiles[src], sp.ca[src], sp.rb[src], p)
			if ka > 0 {
				wa[sortedIndex(rl, int32(src))] = win[:ka]
			}
			if kb > 0 {
				wb[sortedIndex(cl, int32(src))] = win[ka : ka+kb]
			}
		})
	})

	// Phase 4: forward — a re-sends each tile's A-window (on the direct
	// transport a slice into the tile owner's arena, so no copy) to the
	// tile's column nodes.
	net.Phase("mmcsr/forward")
	for a := 0; a < n; a++ {
		rl := sp.rowYs[sp.rowOff[a]:sp.rowOff[a+1]]
		wa := tts.slots[a]
		for i, y := range rl {
			if len(wa[i]) == 0 {
				continue
			}
			tl := sp.tiles[y]
			for j := 0; j < tl.F; j++ {
				tups.send(a, tl.Col+j, &wa[i])
			}
		}
	}
	mailF := net.Flush()

	// Phase 5: gather — b forms the partial products and routes each run of
	// (z, value) tuples to its output row owner. Tiles are disjoint, so the
	// forward chunk from a is the one for the unique tile containing (a, b).
	net.Phase("mmcsr/gather")
	net.ForEach(func(b int) {
		cl := sp.colYs[sp.colOff[b]:sp.colOff[b+1]]
		wb := tts.slots2[b]
		pairs := pts.bufs[b][:0]
		for j, y := range cl {
			bchunk := wb[j]
			if len(bchunk) == 0 {
				continue
			}
			tl := sp.tiles[y]
			for a := tl.Row; a < tl.Row+tl.F; a++ {
				for _, at := range tups.from(mailF, b, a) {
					for _, bt := range bchunk {
						pairs = append(pairs, ring.Tuple[ring.Tuple[T]]{Idx: at.Idx, Val: ring.Tuple[T]{Idx: bt.Idx, Val: sr.Mul(at.Val, bt.Val)}})
					}
				}
			}
		}
		pts.bufs[b] = pairs
		csrGatherRuns[T](tts, xts, b, pairs, nodeBuf(tts.bufs, b, len(pairs)))
	})
	for b := 0; b < n; b++ {
		gs := tts.slots3[b]
		for r := range gs {
			tups.send(b, int(xts.bufs[b][r]), &gs[r])
		}
	}
	mailG := net.Flush()

	// Phase 6: accumulate — x concatenates its received runs (copies; the
	// senders' arenas are read-only), folds, and the rows assemble locally.
	net.Phase("mmcsr/accumulate")
	net.ForEach(func(x int) {
		acc := tts.bufs2[x][:0]
		tups.each(mailG, x, func(src int, run []ring.Tuple[T]) {
			acc = append(acc, run...)
		})
		out := csrFold(sr, zero, acc)
		tts.bufs2[x] = out
		sp.ca[x] = len(out)
	})
	return csrAssemble[T](net, sp, tts, n), nil
}

// csrExpand densifies a CSR operand into a pooled row matrix (fallback
// paths only — NewRowMat underneath is exactly what the dense-allocation
// gate watches, so a product that claims to have stayed CSR and didn't is
// caught even here).
func csrExpand[T any](net *clique.Network, sc *Scratch, zero, one T, m *matrix.CSR[T]) *RowMat[T] {
	out := GetMat[T](sc, m.N)
	net.ForEach(func(v int) {
		row := out.Rows[v]
		for j := range row {
			row[j] = zero
		}
		cols, vals := m.Row(v)
		for i, c := range cols {
			if vals == nil {
				row[c] = one
			} else {
				row[c] = vals[i]
			}
		}
	})
	return out
}

// densifyPair expands both operands for a dense-engine fallback; release
// returns the pooled matrices (engine results are fresh, never aliased).
func densifyPair[T any](net *clique.Network, sc *Scratch, zero, one T, s, t *matrix.CSR[T]) (sd, td *RowMat[T], release func()) {
	sd = csrExpand(net, sc, zero, one, s)
	td = csrExpand(net, sc, zero, one, t)
	return sd, td, func() { PutMat(sc, sd); PutMat(sc, td) }
}
