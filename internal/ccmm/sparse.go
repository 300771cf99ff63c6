package ccmm

import (
	"errors"
	"fmt"

	"github.com/algebraic-clique/algclique/internal/clique"
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
//                   (≤ one value per ordered pair: one flush);
//  2. census      — every y broadcasts (ca(y), rb(y)) in one word; all
//                   nodes reject with ErrTooDense unless Σ w(y) < 2n² —
//                   the exact condition that specialises to the paper's
//                   Σ deg(y)² < 2n² when S = T = an undirected adjacency
//                   matrix — and compute the same tile allocation with
//                   sides f(y) = max(1, 2^⌊log₂(√w(y)/4)⌋);
//  3. spread      — y splits its column list a(y) into f chunks over the
//                   tile's row nodes A(y) and its row list b(y) over the
//                   column nodes B(y), as (index, value) tuple streams;
//  4. forward     — each a ∈ A(y) forwards its a(y)-chunk to every
//                   b ∈ B(y); tiles are disjoint, so each ordered pair
//                   carries at most one chunk;
//  5. gather      — b now holds all of a(y) and its own b(y)-chunk, forms
//                   the partial products (z, S[x][y]⊗T[y][z]) and routes
//                   each to output row owner x;
//  6. accumulate  — x folds the received tuples into its output row with
//                   the semiring addition (commutative and, for every
//                   shipped algebra, order-independent, so the result is
//                   bit-identical to the dense engines').
//
// All traffic after the census is oblivious — chunk sizes and tile
// placements are computable by every node from the broadcast counts — and
// rides the routing layer's Auto strategy, so skewed loads fall back to
// Lenzen-style two-phase delivery. The tuple streams are typed
// []ring.Tuple[T] messages handed to the exchange port: ring.TupleCodec
// chunks on the wire transport (one per ordered pair per phase), references
// on the direct transport with the identical word cost charged from the
// same TupleCodec EncodedLen sums.

// ErrTooDense reports that the operands fail the Σ ca(y)·rb(y) < 2n²
// density bound of the sparse tile engine, so the Lemma 12 packing is not
// guaranteed to exist. The density-aware planner falls back to the
// resolved dense engine when it sees this error mid-call; callers forcing
// EngineSparse receive it directly (test with errors.Is).
var ErrTooDense = errors.New("ccmm: operands too dense for the sparse tile engine")

// minSparseN is the smallest clique the Lemma 12 packing argument covers:
// Σ f(y)² ≤ n + Σ w(y)/16 < n + n²/8 ≤ k² needs n ≥ 8.
const minSparseN = 8

// SparseMul computes P = S·T over an arbitrary semiring with the sparse
// tile engine — O((ρ_A·ρ_B)^{1/3}/n^{2/3} + 1) rounds on operands sparse
// enough for the Lemma 12 packing (Σ ca(y)·rb(y) < 2n²), ErrTooDense
// otherwise. Requires n ≥ 8; see the file comment for the phase structure.
// The scratch pools are caller-owned; a nil sc uses a transient one.
func SparseMul[T any](net *clique.Network, sc *Scratch, sr ring.Semiring[T], codec ring.Codec[T], s, t *RowMat[T]) (*RowMat[T], error) {
	return runProduct(net, sc, func(net *clique.Network, sc *Scratch) (*RowMat[T], error) {
		return sparseMul[T](net, sc, sr, codec, s, t)
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

// countRowNNZ fills counts[v] with the number of entries of m.Rows[v] not
// equal to the semiring zero, parallelised over the worker pool.
func countRowNNZ[T any](net *clique.Network, sr ring.Semiring[T], zero T, m *RowMat[T], counts []int) {
	net.ForEach(func(v int) {
		var k int
		for _, x := range m.Rows[v] {
			if !sr.Equal(x, zero) {
				k++
			}
		}
		counts[v] = k
	})
}

// sparseMul is the engine body. The spread views alias the senders' message
// buffers (or the port's receive arenas), which stay alive until the
// message matrices return to the pool at the end of the product.
func sparseMul[T any](net *clique.Network, sc *Scratch, sr ring.Semiring[T], codec ring.Codec[T], s, t *RowMat[T]) (*RowMat[T], error) {
	n := net.N()
	if err := validatePair(n, s, t); err != nil {
		return nil, err
	}
	if n < minSparseN {
		return nil, fmt.Errorf("ccmm: sparse engine needs n ≥ %d for the Lemma 12 packing, got %d: %w", minSparseN, n, ErrSize)
	}
	bc := ring.AsBulk[T](codec)
	vals := newPort[T](net, sc, chunks[T]{bc, 1})
	tups := newPort[ring.Tuple[T]](net, sc, tupleFormat(sc, bc, n))
	tts := tups.ts
	sp := sc.sparse()
	zero := sr.Zero()
	growBufs(&tts.bufs, n)
	growBufs(&tts.bufs2, n)
	sp.ca = growInts(sp.ca, n)
	sp.rb = growInts(sp.rb, n)

	// Phase 1: transpose — ship each nonzero S[x][y] to column owner y as a
	// one-element message read straight out of the operand row. At most one
	// value per ordered pair, so per-link loads never exceed the value
	// width and direct per-link delivery is already optimal. Payload
	// enqueue is single-threaded, like the exchanges' send loops.
	net.Phase("mmsparse/transpose")
	countRowNNZ(net, sr, zero, t, sp.rb)
	for x := 0; x < n; x++ {
		row := s.Rows[x]
		for y := range row {
			if !sr.Equal(row[y], zero) {
				vals.sendVal(x, y, &row[y])
			}
		}
	}
	mail := net.Flush()
	net.ForEach(func(y int) {
		aL := tts.bufs[y][:0]
		vals.eachVal(mail, y, func(x int, v T) {
			aL = append(aL, ring.Tuple[T]{Idx: int32(x), Val: v})
		})
		tts.bufs[y] = aL
		sp.ca[y] = len(aL)
	})

	// Phase 2: census + tile tables; the density bound is enforced here.
	if err := sparseCensus(net, sp, n); err != nil {
		return nil, err
	}

	// Phase 3: spread — y ships its a(y)-chunks over A(y) and b(y)-chunks
	// over B(y). A destination in both ranges receives one combined chunk,
	// A-part first.
	net.Phase("mmsparse/spread")
	pays := tts.getPay(n)
	net.ForEach(func(y int) {
		tl := sp.tiles[y]
		if !tl.Allocated {
			return // an unallocated tile has nothing to send
		}
		aL := tts.bufs[y][:sp.ca[y]]
		bL := nodeBuf(tts.bufs2, y, sp.rb[y])[:0]
		for z, v := range t.Rows[y] {
			if !sr.Equal(v, zero) {
				bL = append(bL, ring.Tuple[T]{Idx: int32(z), Val: v})
			}
		}
		tts.bufs2[y] = bL
		for i := 0; i < tl.F; i++ {
			dst := tl.Row + i
			lo, hi := chunkBounds(sp.ca[y], tl.F, i)
			msg := append(pays[y][dst][:0], aL[lo:hi]...)
			if j := dst - tl.Col; j >= 0 && j < tl.F {
				blo, bhi := chunkBounds(sp.rb[y], tl.F, j)
				msg = append(msg, bL[blo:bhi]...)
			}
			pays[y][dst] = msg
		}
		for j := 0; j < tl.F; j++ {
			dst := tl.Col + j
			if i := dst - tl.Row; i >= 0 && i < tl.F {
				continue // combined with the A-part above
			}
			blo, bhi := chunkBounds(sp.rb[y], tl.F, j)
			if bhi > blo {
				pays[y][dst] = append(pays[y][dst][:0], bL[blo:bhi]...)
			}
		}
		tups.post(pays, y)
	})
	in := tups.exchange(pays)

	// Window the received combined chunks per tile: node p keeps its
	// A-chunks (to forward) and B-chunks (for the gather).
	viewsA := tts.getViews(n)
	viewsB := tts.getViews(n)
	net.ForEach(func(p int) {
		tups.open(in, p)
		for _, y := range sp.rowYs[sp.rowOff[p]:sp.rowOff[p+1]] {
			ka, kb := spreadCounts(sp.tiles[y], sp.ca[y], sp.rb[y], p)
			if ka+kb == 0 {
				continue
			}
			chunk := in[p][y][:ka+kb]
			if ka > 0 {
				viewsA[p][y] = chunk[:ka]
			}
			if kb > 0 {
				viewsB[p][y] = chunk[ka:]
			}
		}
		for _, y := range sp.colYs[sp.colOff[p]:sp.colOff[p+1]] {
			tl := sp.tiles[y]
			if i := p - tl.Row; i >= 0 && i < tl.F {
				continue // windowed with the combined chunk above
			}
			_, kb := spreadCounts(tl, sp.ca[y], sp.rb[y], p)
			if kb > 0 {
				viewsB[p][y] = in[p][y][:kb]
			}
		}
	})

	// Phase 4: forward — a ships each tile's a(y)-chunk to the tile's
	// column nodes, copied into a fresh message buffer per destination (the
	// spread views stay untouched and alive). Tiles are disjoint, so each
	// ordered pair carries at most one chunk.
	net.Phase("mmsparse/forward")
	fpays := tts.getPay(n)
	net.ForEach(func(a int) {
		for _, y := range sp.rowYs[sp.rowOff[a]:sp.rowOff[a+1]] {
			chunk := viewsA[a][y]
			if len(chunk) == 0 {
				continue
			}
			tl := sp.tiles[y]
			for j := 0; j < tl.F; j++ {
				b := tl.Col + j
				fpays[a][b] = append(fpays[a][b][:0], chunk...)
			}
		}
		tups.post(fpays, a)
	})
	fin := tups.exchange(fpays)

	// Phase 5: gather — b holds all of a(y), forms the partial products
	// against its b(y)-chunk, and routes each (z, value) to row owner x.
	net.Phase("mmsparse/gather")
	gpays := tts.getPay(n)
	net.ForEach(func(b int) {
		tups.open(fin, b)
		out := gpays[b]
		for _, y := range sp.colYs[sp.colOff[b]:sp.colOff[b+1]] {
			bchunk := viewsB[b][y]
			if len(bchunk) == 0 {
				continue
			}
			tl := sp.tiles[y]
			for a := tl.Row; a < tl.Row+tl.F; a++ {
				lo, hi := chunkBounds(sp.ca[y], tl.F, a-tl.Row)
				if hi == lo {
					continue
				}
				for _, at := range fin[b][a][:hi-lo] {
					dst := out[at.Idx]
					for _, bt := range bchunk {
						dst = append(dst, ring.Tuple[T]{Idx: bt.Idx, Val: sr.Mul(at.Val, bt.Val)})
					}
					out[at.Idx] = dst
				}
			}
		}
		tups.post(gpays, b)
	})
	gin := tups.exchange(gpays)

	// Phase 6: accumulate. The gather receive pattern is data-dependent
	// (which pairs carry products depends on the inputs), so x scans every
	// source; the exchange leaves idle pairs nil.
	net.Phase("mmsparse/accumulate")
	p := GetMat[T](sc, n)
	net.ForEach(func(x int) {
		tups.open(gin, x)
		row := p.Rows[x]
		for j := range row {
			row[j] = zero
		}
		for b := 0; b < n; b++ {
			for _, tp := range gin[x][b] {
				row[tp.Idx] = sr.Add(row[tp.Idx], tp.Val)
			}
		}
	})
	tts.putViews(viewsA)
	tts.putViews(viewsB)
	tups.release(in)
	tups.release(fin)
	tups.release(gin)
	// Last taken, first returned: the pool is a stack, so the next product
	// gets each matrix back in the role whose capacity it already has.
	tts.putPay(gpays)
	tts.putPay(fpays)
	tts.putPay(pays)
	return p, nil
}
