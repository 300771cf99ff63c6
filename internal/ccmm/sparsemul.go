package ccmm

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// This file is EngineSparse: a density-aware sparse semiring matrix
// multiplication engine, the general form of the paper's §1.2 remark that
// the Theorem 4 tile machinery "can be interpreted as an efficient routine
// for sparse matrix multiplication, under a specific definition of
// sparseness". Le Gall's follow-up (Further Algebraic Algorithms in the
// Congested Clique, arXiv:1608.02674) shows general sparse products run in
// O((ρ_A·ρ_B)^{1/3}/n^{2/3} + 1) rounds; this engine realises the tile
// half of that programme on the simulator.
//
// Every contribution to P = S·T is a triple (x, y, z) with S[x][y] and
// T[y][z] both nonzero — the generalisation of the 2-walk x–y–z. Writing
// ca(y) for the nonzero count of S's column y and rb(y) for that of T's
// row y, the triples through middle index y number w(y) = ca(y)·rb(y),
// and the engine routes them with the Lemma 12 tiles:
//
//  1. transpose   — each nonzero S[x][y] ships to column owner y
//                   (≤ one value per ordered pair);
//  2. census      — every y broadcasts (ca(y), rb(y)) in one word; all
//                   nodes reject with ErrTooDense unless Σ w(y) < 2n² —
//                   the exact condition that specialises to the paper's
//                   Σ deg(y)² < 2n² when S = T = an undirected adjacency
//                   matrix — and compute the same tile allocation with
//                   sides f(y) = max(1, 2^⌊log₂(√w(y)/4)⌋);
//  3. spread      — y splits its column list a(y) into f chunks over the
//                   tile's row nodes A(y) and its row list b(y) over the
//                   column nodes B(y), as (index, value) tuple streams; a
//                   node in both ranges gets one combined chunk, A-part
//                   first;
//  4. forward     — each a ∈ A(y) forwards its a(y)-chunk to every
//                   b ∈ B(y); tiles are disjoint, so each ordered pair
//                   carries at most one chunk;
//  5. gather      — b now holds all of a(y) and its own b(y)-chunk, forms
//                   the partial products (z, S[x][y]⊗T[y][z]) and routes
//                   each output row's run of them to its owner x;
//  6. accumulate  — x folds the received tuples into its output row with
//                   the semiring addition (commutative and, for every
//                   shipped algebra, order-independent, so the result is
//                   bit-identical to the dense engines').
//
// The body is written once and is generic over two operand forms
// (tileForm), as route is: RowMat operands, whose rows it reads in place and
// whose product it adds into a free-list row matrix, and matrix.CSR
// operands, whose product it folds into a fresh canonical CSR. The CSR form
// never holds n×n state — every buffer is per node and sized to that node's
// traffic — so a product on ρ-nonzero operands costs Θ(n + traffic) memory
// instead of the Θ(n²) a RowMat forces.
//
// Every phase is one exchange of the port (port.send and port.flush):
// messages go out link by link, and the flush resolves routing.Auto from
// the links the phase touched, so skewed loads fall back to Lenzen-style
// two-phase delivery on either transport. All traffic
// after the census is oblivious — chunk sizes and tile placements follow
// from the broadcast counts — except the gather, whose per-link lengths a
// receiver learns from the words that arrived (ring.TupleCodec.CountFor).
// Both operand forms send the same messages on the same links, so a
// product charges one ledger whichever form carries it.

// ErrTooDense reports that the operands fail the Σ ca(y)·rb(y) < 2n²
// density bound of the sparse tile engine, so the Lemma 12 packing is not
// guaranteed to exist. The density-aware planner falls back to the
// resolved dense engine when it sees this error mid-call; callers forcing
// EngineSparse receive it directly (test with errors.Is).
var ErrTooDense = errors.New("ccmm: operands too dense for the sparse tile engine")

// minSparseN is the smallest clique the Lemma 12 packing argument covers:
// Σ f(y)² ≤ n + Σ w(y)/16 < n + n²/8 ≤ k² needs n ≥ 8.
const minSparseN = 8

// tileForm is one operand form of the tile engine as its body sees it; P
// is the product type, and every function closes over the operand pair.
// SparseMul and SparseMulCSR build the two.
type tileForm[T, P any] struct {
	// validate checks the pair against the clique size.
	validate func(n int) error
	// s and t append row v of S and of T onto dst as (column, value)
	// tuples, one per entry the product sees: a RowMat row's entries
	// different from the semiring zero, a CSR row's stored entries.
	s, t func(dst []ring.Tuple[T], v int) []ring.Tuple[T]
	// accumulate makes the product. On x's ForEach worker, receive(x) fills
	// rows[x] with the tuples output row x received, in arrival order; the
	// form may overwrite rows[x] after that.
	accumulate func(rows [][]ring.Tuple[T], receive func(x int)) P
}

// SparseMul computes P = S·T over an arbitrary semiring with the sparse
// tile engine — O((ρ_A·ρ_B)^{1/3}/n^{2/3} + 1) rounds on operands sparse
// enough for the Lemma 12 packing (Σ ca(y)·rb(y) < 2n²), ErrTooDense
// otherwise. Requires n ≥ 8; see the file comment for the phase structure.
// The product comes from sc's free list; a nil sc is the network's own.
func SparseMul[T any](net *clique.Network, sc *Scratch, sr ring.Semiring[T], codec ring.Codec[T], s, t *RowMat[T]) (p *RowMat[T], err error) {
	defer catchAbort(&err)
	sc = sc.orOf(net)
	zero := sr.Zero()
	row := func(m *RowMat[T]) func([]ring.Tuple[T], int) []ring.Tuple[T] {
		return func(dst []ring.Tuple[T], v int) []ring.Tuple[T] {
			for j, x := range m.Rows[v] {
				if !sr.Equal(x, zero) {
					dst = append(dst, ring.Tuple[T]{Idx: int32(j), Val: x})
				}
			}
			return dst
		}
	}
	return sparseMul(net, sc, sr, codec, tileForm[T, *RowMat[T]]{
		validate: func(n int) error { return validatePair(n, s, t) },
		s:        row(s),
		t:        row(t),
		accumulate: func(rows [][]ring.Tuple[T], receive func(x int)) *RowMat[T] {
			p := GetMat[T](sc, len(rows))
			net.ForEach(func(x int) {
				receive(x)
				out := p.Rows[x]
				for j := range out {
					out[j] = zero
				}
				for _, tp := range rows[x] {
					out[tp.Idx] = sr.Add(out[tp.Idx], tp.Val)
				}
			})
			return p
		},
	})
}

// SparseMulCSR is SparseMul end-to-end on CSR operands: the same body,
// schedule and ledger, but Θ(n + ρ) memory — no dense n×n buffer is ever
// allocated, which the DenseAllocs counter asserts — and a fresh canonical
// CSR product (strictly increasing columns, no stored semiring zeros),
// bit-identical to compressing the RowMat product. A nil Val on an operand
// means every stored entry is the semiring one (the adjacency convention);
// so does the nil Val of a product over ring.Bool, whose stored entries
// are all true.
func SparseMulCSR[T any](net *clique.Network, sc *Scratch, sr ring.Semiring[T], codec ring.Codec[T], s, t *matrix.CSR[T]) (p *matrix.CSR[T], err error) {
	defer catchAbort(&err)
	zero, one := sr.Zero(), sr.One()
	row := func(m *matrix.CSR[T]) func([]ring.Tuple[T], int) []ring.Tuple[T] {
		return func(dst []ring.Tuple[T], v int) []ring.Tuple[T] {
			cols, vals := m.Row(v)
			return ring.AppendTuples(dst, cols, vals, one)
		}
	}
	return sparseMul(net, sc.orOf(net), sr, codec, tileForm[T, *matrix.CSR[T]]{
		validate: func(n int) error {
			if err := csrCheck(s, n); err != nil {
				return err
			}
			return csrCheck(t, n)
		},
		s: row(s),
		t: row(t),
		accumulate: func(rows [][]ring.Tuple[T], receive func(x int)) *matrix.CSR[T] {
			net.ForEach(func(x int) {
				receive(x)
				rows[x] = csrFold(sr, zero, rows[x])
			})
			_, valueFree := any(sr).(ring.Bool)
			return csrAssemble(net, rows, valueFree)
		},
	})
}

// sparse returns the scratch's pooled sparse-engine tables.
func (sc *Scratch) sparse() *sparseState {
	if sc.sp == nil {
		sc.sp = &sparseState{}
	}
	return sc.sp
}

// growInts returns s resized to length k (contents stale).
func growInts[V int | int32 | clique.Word](s []V, k int) []V {
	if cap(s) < k {
		return make([]V, k)
	}
	return s[:k]
}

// sparseCensus runs the engine's census round: every node y broadcasts
// (ca(y), rb(y)) packed into one word, and all nodes check the density
// bound and compute the identical tile tables. sp.ca and sp.rb hold each
// node's own counts on entry and everyone's counts on return.
//
// The reverse indices are CSR-shaped: sp.rowYs[sp.rowOff[p]:sp.rowOff[p+1]]
// lists the tiles whose row range contains node p (ascending y), and
// colOff/colYs do the same for column ranges.
func sparseCensus(net *clique.Network, sp *sparseState, n int) error {
	net.Phase("mmsparse/census")
	sp.nnz = growInts(sp.nnz, n)
	for y := 0; y < n; y++ {
		sp.nnz[y] = clique.Word(sp.ca[y])<<32 | clique.Word(sp.rb[y])
	}
	got := net.BroadcastWord(sp.nnz)
	sp.fs = growInts(sp.fs, n)
	var total int64
	for y := 0; y < n; y++ {
		ca, rb := int(got[y]>>32), int(got[y]&0xffffffff)
		sp.ca[y], sp.rb[y] = ca, rb
		w := int64(ca) * int64(rb)
		total += w
		sp.fs[y] = TileSideFor(w)
	}
	if bound := int64(2) * int64(n) * int64(n); total >= bound {
		return fmt.Errorf("%w: Σ ca·rb = %d ≥ 2n² = %d", ErrTooDense, total, bound)
	}
	tiles, err := AllocateTiles(sp.fs, n)
	if err != nil {
		return err // unreachable under the density bound for n ≥ 8
	}
	sp.tiles = tiles

	// Build both reverse indices with one counting pass each; filling in
	// ascending y keeps every per-node list y-sorted, so all iteration
	// orders downstream are deterministic.
	sp.rowOff = growInts(sp.rowOff, n+1)
	sp.colOff = growInts(sp.colOff, n+1)
	for p := 0; p <= n; p++ {
		sp.rowOff[p], sp.colOff[p] = 0, 0
	}
	for _, t := range tiles {
		if !t.Allocated {
			continue
		}
		for i := 0; i < t.F; i++ {
			sp.rowOff[t.Row+i+1]++
			sp.colOff[t.Col+i+1]++
		}
	}
	for p := 0; p < n; p++ {
		sp.rowOff[p+1] += sp.rowOff[p]
		sp.colOff[p+1] += sp.colOff[p]
	}
	sp.rowYs = growInts(sp.rowYs, int(sp.rowOff[n]))
	sp.colYs = growInts(sp.colYs, int(sp.colOff[n]))
	cur := growInts(sp.nnz, n) // the census words are spent; reuse as cursors
	for p := 0; p < n; p++ {
		cur[p] = clique.Word(sp.rowOff[p])
	}
	for _, t := range tiles {
		if !t.Allocated {
			continue
		}
		for i := 0; i < t.F; i++ {
			p := t.Row + i
			sp.rowYs[cur[p]] = int32(t.Y)
			cur[p]++
		}
	}
	for p := 0; p < n; p++ {
		cur[p] = clique.Word(sp.colOff[p])
	}
	for _, t := range tiles {
		if !t.Allocated {
			continue
		}
		for i := 0; i < t.F; i++ {
			p := t.Col + i
			sp.colYs[cur[p]] = int32(t.Y)
			cur[p]++
		}
	}
	return nil
}

// spreadCounts returns the A-part and B-part tuple counts of the spread
// message from tile t to grid node dst — zero when dst is outside the
// respective range. Every node computes the same counts from the census,
// which keeps the spread and forward traffic oblivious.
func spreadCounts(t Tile, ca, rb, dst int) (ka, kb int) {
	if i := dst - t.Row; i >= 0 && i < t.F {
		lo, hi := chunkBounds(ca, t.F, i)
		ka = hi - lo
	}
	if j := dst - t.Col; j >= 0 && j < t.F {
		lo, hi := chunkBounds(rb, t.F, j)
		kb = hi - lo
	}
	return ka, kb
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

// byIdx orders tuples by index alone, for the stable sorts below: a generic
// comparison the sort instantiates directly, so neither reflection nor a
// per-call closure stands between the sort and the int32 key.
func byIdx[V any](a, b ring.Tuple[V]) int { return cmp.Compare(a.Idx, b.Idx) }

// gatherRuns sorts node b's emitted (x, (z, v)) pairs by output row
// (stable, so the deterministic emit order survives within a row),
// projects the (z, v) halves into arena — which must have length
// len(pairs) — and calls emit with each output row and its run of tuples
// there, rows ascending.
func gatherRuns[T any](pairs []ring.Tuple[ring.Tuple[T]], arena []ring.Tuple[T], emit func(x int, run []ring.Tuple[T])) {
	slices.SortStableFunc(pairs, byIdx[ring.Tuple[T]])
	for i := 0; i < len(pairs); {
		j := i + 1
		for j < len(pairs) && pairs[j].Idx == pairs[i].Idx {
			j++
		}
		for k := i; k < j; k++ {
			arena[k] = pairs[k].Val
		}
		emit(int(pairs[i].Idx), arena[i:j:j])
		i = j
	}
}

// sparseMul is the engine body, one per semiring over both operand forms.
// Messages are windows into per-node arenas that stay untouched until the
// product ends — the spread arenas hold every chunk a receiver forwards or
// multiplies, the gather arenas every run an output row owner folds — so on
// the direct transport a receiver may keep the windows it was handed.
func sparseMul[T, P any](net *clique.Network, sc *Scratch, sr ring.Semiring[T], codec ring.Codec[T], form tileForm[T, P]) (P, error) {
	var none P
	n := net.N()
	if err := form.validate(n); err != nil {
		return none, err
	}
	if n < minSparseN {
		return none, fmt.Errorf("ccmm: sparse engine needs n ≥ %d for the Lemma 12 packing, got %d: %w", minSparseN, n, ErrSize)
	}
	bc := ring.AsBulk[T](codec)
	vals := newPort[T](net, sc, chunks[T]{bc, 1})
	tups := newPort[ring.Tuple[T]](net, sc, tupleFormat(sc, bc, n))
	vts, tts := vals.ts, tups.ts
	pts := typedFrom[ring.Tuple[ring.Tuple[T]]](sc)
	sp := sc.sparse()
	growBufs(&vts.bufs2, n)
	growBufs(&tts.bufs, n)
	growBufs(&tts.bufs2, n)
	growBufs(&tts.bufs3, n)
	growBufs(&pts.bufs, n)
	growBufs(&tts.slots, n)
	growBufs(&tts.slots2, n)
	sp.ca = growInts(sp.ca, n)
	sp.rb = growInts(sp.rb, n)

	// Phase 1: transpose — each nonzero S[x][y] rides to column owner y as a
	// one-element message, staged in x's value buffer; T's rows become the
	// B-lists the spread cuts. This loop, like the forward's, runs on one
	// goroutine: a fan-out over the nodes would cost more than the work.
	net.Phase("mmsparse/transpose")
	for v := 0; v < n; v++ {
		sv := form.s(tts.bufs[v][:0], v)
		tts.bufs[v] = sv
		vs := nodeBuf(vts.bufs2, v, len(sv))
		for k, e := range sv {
			vs[k] = e.Val
			vals.send(v, int(e.Idx), vs[k:k+1:k+1])
		}
		tts.bufs2[v] = form.t(tts.bufs2[v][:0], v)
		sp.rb[v] = len(tts.bufs2[v])
	}
	mailT := vals.flush()
	net.ForEach(func(y int) {
		aL := tts.bufs[y][:0]
		vals.each(mailT, y, func(x int, v []T) {
			aL = append(aL, ring.Tuple[T]{Idx: int32(x), Val: v[0]})
		})
		tts.bufs[y], sp.ca[y] = aL, len(aL)
	})

	// Phase 2: census + tile tables; the density bound is enforced here.
	if err := sparseCensus(net, sp, n); err != nil {
		return none, err
	}

	// Phase 3: spread — y packs its chunks contiguously into its arena, row
	// destinations first (a row destination also in the column range gets
	// the combined chunk), and sends one window per destination.
	net.Phase("mmsparse/spread")
	net.ForEach(func(y int) {
		tl := sp.tiles[y]
		if !tl.Allocated {
			return // an unallocated tile has nothing to send
		}
		aL, bL := tts.bufs[y], tts.bufs2[y]
		arena := nodeBuf(tts.bufs3, y, len(aL)+len(bL))
		off := 0
		for i := 0; i < tl.F; i++ {
			dst := tl.Row + i
			start := off
			lo, hi := chunkBounds(len(aL), tl.F, i)
			off += copy(arena[off:], aL[lo:hi])
			if j := dst - tl.Col; j >= 0 && j < tl.F {
				lo, hi := chunkBounds(len(bL), tl.F, j)
				off += copy(arena[off:], bL[lo:hi])
			}
			if off > start {
				tups.send(y, dst, arena[start:off:off])
			}
		}
		for j := 0; j < tl.F; j++ {
			dst := tl.Col + j
			if i := dst - tl.Row; i >= 0 && i < tl.F {
				continue // combined with the A-part above
			}
			start := off
			lo, hi := chunkBounds(len(bL), tl.F, j)
			off += copy(arena[off:], bL[lo:hi])
			if off > start {
				tups.send(y, dst, arena[start:off:off])
			}
		}
	})
	mailS := tups.flush()
	// Node p windows each received chunk by tile: the A-part to forward, the
	// B-part for its own gather.
	net.ForEach(func(p int) {
		rl := sp.rowYs[sp.rowOff[p]:sp.rowOff[p+1]]
		cl := sp.colYs[sp.colOff[p]:sp.colOff[p+1]]
		wa := nodeSlots(tts.slots, p, len(rl))
		wb := nodeSlots(tts.slots2, p, len(cl))
		tups.each(mailS, p, func(y int, win []ring.Tuple[T]) {
			ka, kb := spreadCounts(sp.tiles[y], sp.ca[y], sp.rb[y], p)
			if ka > 0 {
				wa[sortedIndex(rl, int32(y))] = win[:ka]
			}
			if kb > 0 {
				wb[sortedIndex(cl, int32(y))] = win[ka : ka+kb]
			}
		})
	})

	// Phase 4: forward — a re-sends each tile's A-window to the tile's
	// column nodes.
	net.Phase("mmsparse/forward")
	for a := 0; a < n; a++ {
		for i, y := range sp.rowYs[sp.rowOff[a]:sp.rowOff[a+1]] {
			if chunk := tts.slots[a][i]; len(chunk) > 0 {
				tl := sp.tiles[y]
				for b := tl.Col; b < tl.Col+tl.F; b++ {
					tups.send(a, b, chunk)
				}
			}
		}
	}
	mailF := tups.flush()

	// Phase 5: gather — b forms the partial products and sends each output
	// row's run of (z, value) tuples to its owner. Tiles are disjoint, so the
	// forwarded chunk from a is the one for the unique tile containing (a, b).
	net.Phase("mmsparse/gather")
	net.ForEach(func(b int) {
		pairs := pts.bufs[b][:0]
		for j, y := range sp.colYs[sp.colOff[b]:sp.colOff[b+1]] {
			bchunk := tts.slots2[b][j]
			if len(bchunk) == 0 {
				continue
			}
			tl := sp.tiles[y]
			for a := tl.Row; a < tl.Row+tl.F; a++ {
				for _, at := range tups.from(mailF, b, a, 0) {
					for _, bt := range bchunk {
						pairs = append(pairs, ring.Tuple[ring.Tuple[T]]{Idx: at.Idx, Val: ring.Tuple[T]{Idx: bt.Idx, Val: sr.Mul(at.Val, bt.Val)}})
					}
				}
			}
		}
		pts.bufs[b] = pairs
		gatherRuns(pairs, nodeBuf(tts.bufs, b, len(pairs)), func(x int, run []ring.Tuple[T]) {
			tups.send(b, x, run)
		})
	})
	mailG := tups.flush()

	// Phase 6: accumulate — the form makes the product from each output
	// row's received runs, concatenated into x's buffer (copies; the
	// senders' arenas are read-only).
	net.Phase("mmsparse/accumulate")
	rows := tts.bufs2[:n]
	return form.accumulate(rows, func(x int) {
		acc := rows[x][:0]
		tups.each(mailG, x, func(_ int, run []ring.Tuple[T]) {
			acc = append(acc, run...)
		})
		rows[x] = acc
	}), nil
}
