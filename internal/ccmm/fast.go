package ccmm

import (
	"fmt"
	"slices"

	"github.com/algebraic-clique/algclique/internal/bilinear"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// FastBilinear computes P = S·T over a ring on an n-node clique with
// n = q², using the bilinear-scheme simulation of §2.2 (Lemma 10): the n×n
// matrices are viewed as d×d block matrices over the ring of (n/d)×(n/d)
// matrices, the scheme's m ≤ n block products run one per node, and the
// linear-combination steps are spread over the label grid [q]². Each node
// sends and receives O(m·(n/(d·√n))²) = O(n^{2-2/σ}) words, delivered in
// O(n^{1-2/σ}) rounds.
//
// A nil scheme selects bilinear.Pick(n). The scheme must satisfy m ≤ n and
// d | q.
//
// Message arenas, the assembled grids, the per-multiplication combination
// pieces, the block products, and the result all come from sc (see
// Scratch) and persist there across products; a nil sc is the network's
// own. Row and piece chunks are typed messages sent through the exchange
// port (the step-7 output rows as rows of the accumulators): by reference
// with the words charged analytically from EncodedLen on the direct
// transport, one bulk-codec chunk each on the wire.
func FastBilinear[T any](net *clique.Network, sc *Scratch, rg ring.Ring[T], codec ring.Codec[T], scheme *bilinear.Scheme, s, t *RowMat[T]) (p *RowMat[T], err error) {
	defer catchAbort(&err)
	return fastBilinear[T](net, sc.orOf(net), rg, codec, scheme, s, t)
}

// fastBilinear is the engine body: the seven steps of Lemma 10, every
// chunk a typed element slice — gathered rows append straight into
// per-node message arenas, received chunks copy straight into the grids,
// full operands, and output rows. Every link carries at most one message
// per step, and each node's arena is refilled only in a step after the one
// that read its messages.
func fastBilinear[T any](net *clique.Network, sc *Scratch, rg ring.Ring[T], codec ring.Codec[T], scheme *bilinear.Scheme, s, t *RowMat[T]) (*RowMat[T], error) {
	n := net.N()
	if err := validatePair(n, s, t); err != nil {
		return nil, err
	}
	if scheme == nil {
		var err error
		scheme, err = bilinear.Pick(n)
		if err != nil {
			return nil, fmt.Errorf("ccmm: no bilinear scheme fits clique size %d (%v): %w", n, err, ErrSize)
		}
	}
	if err := scheme.Validate(); err != nil {
		return nil, err
	}
	if scheme.M > n {
		return nil, fmt.Errorf("ccmm: scheme %v needs %d multiplication sites on %d nodes: %w",
			scheme, scheme.M, n, ErrSize)
	}
	lay, err := newGridLayout(n, scheme.D)
	if err != nil {
		return nil, err
	}
	bc := ring.AsBulk[T](codec)
	ts := typedFrom[T](sc)
	q, d, qd := lay.q, lay.d, lay.qd
	m := scheme.M
	rows := newPort[T](net, sc, chunks[T]{bc, q}).oblivious() // messages of length-q row chunks
	pieces := rows.with(chunks[T]{bc, qd})                    // messages of length-q/d piece chunks
	zero := rg.Zero()

	groups := make([][]int, q) // ∗x∗ ordered by (v1, v3)
	for x := 0; x < q; x++ {
		groups[x] = lay.groupSet(x)
	}
	growBufs(&ts.bufs, n)
	growSlots(&ts.gridS, n)
	growSlots(&ts.gridT, n)
	growHat(&ts.hatS, n)
	growHat(&ts.hatT, n)
	growSlots(&ts.fullA, n)
	growSlots(&ts.fullB, n)
	growSlots(&ts.fullP, n)
	growSlots(&ts.acc, n)
	growSlots(&ts.piece, n)

	// Step 1: node v sends S[v, ∗x2∗] and T[v, ∗x2∗] to the node labelled
	// (v2, x2), for every x2 ∈ [q] — one message of two row chunks.
	net.Phase("mmfast/distribute")
	net.ForEach(func(v int) {
		_, v2, _ := lay.split(v)
		srow, trow := s.Rows[v], t.Rows[v]
		arena := slices.Grow(ts.bufs[v][:0], 2*q*q)
		for x2 := 0; x2 < q; x2++ {
			start := len(arena)
			arena = appendCols(arena, srow, groups[x2], n, zero)
			arena = appendCols(arena, trow, groups[x2], n, zero)
			rows.send(v, lay.nodeAt(v2, x2), arena[start:len(arena):len(arena)])
		}
		ts.bufs[v] = arena
	})
	mail := rows.flush()

	// Step 2: node (x1, x2) assembles S[∗x1∗, ∗x2∗] and T[∗x1∗, ∗x2∗]
	// (q×q, block-row order) straight from the received chunks and computes
	// the scheme's linear combinations Ŝ(w)[x1∗, x2∗], T̂(w)[x1∗, x2∗] — one
	// (q/d)×(q/d) piece per w, accumulated through block views with no
	// copies.
	net.Phase("mmfast/encode")
	net.ForEach(func(v int) {
		x1, _ := lay.label(v)
		sg := slotAt(ts.gridS, v, q, q)
		tg := slotAt(ts.gridT, v, q, q)
		for pos, sender := range groups[x1] {
			ws := rows.from(mail, v, sender, 0)
			sg.SetRow(pos, ws[:q])
			tg.SetRow(pos, ws[q:2*q])
		}
		hs, ht := hatAt(ts.hatS, v, m, qd), hatAt(ts.hatT, v, m, qd)
		for w := 0; w < m; w++ {
			sp := &hs[w]
			sp.Fill(zero)
			for _, term := range scheme.Alpha[w] {
				matrix.ScaleAddFromBlock(rg, sp, term.C, sg, term.I*qd, term.J*qd)
			}
			tp := &ht[w]
			tp.Fill(zero)
			for _, term := range scheme.Beta[w] {
				matrix.ScaleAddFromBlock(rg, tp, term.C, tg, term.I*qd, term.J*qd)
			}
		}
	})

	// Step 3: every node sends its (q/d)² pieces of Ŝ(w), T̂(w) to node w,
	// one row chunk at a time.
	net.Phase("mmfast/combine")
	net.ForEach(func(v int) {
		arena := slices.Grow(ts.bufs[v][:0], 2*m*qd*qd)
		for w := 0; w < m; w++ {
			start := len(arena)
			sp, tp := &ts.hatS[v][w], &ts.hatT[v][w]
			for i := 0; i < qd; i++ {
				arena = append(arena, sp.Row(i)...)
			}
			for i := 0; i < qd; i++ {
				arena = append(arena, tp.Row(i)...)
			}
			pieces.send(v, w, arena[start:len(arena):len(arena)])
		}
		ts.bufs[v] = arena
	})
	mail = pieces.flush()

	// Step 4: node w < m assembles Ŝ(w), T̂(w) ((n/d)×(n/d)), copying each
	// chunk straight into its row window, and multiplies.
	net.Phase("mmfast/multiply")
	nd := n / d
	net.ForEach(func(w int) {
		if w >= m {
			return
		}
		sfull := slotAt(ts.fullA, w, nd, nd)
		tfull := slotAt(ts.fullB, w, nd, nd)
		for x1 := 0; x1 < q; x1++ {
			for x2 := 0; x2 < q; x2++ {
				ws := pieces.from(mail, w, lay.nodeAt(x1, x2), 0)
				for i := 0; i < qd; i++ {
					copy(sfull.Row(x1*qd + i)[x2*qd:(x2+1)*qd], ws[i*qd:(i+1)*qd])
					copy(tfull.Row(x1*qd + i)[x2*qd:(x2+1)*qd], ws[(qd+i)*qd:(qd+i+1)*qd])
				}
			}
		}
		matrix.MulInto(rg, slotAt(ts.fullP, w, nd, nd), sfull, tfull)
	})

	// Step 5: node w returns P̂(w)[x1∗, x2∗] to the node labelled (x1, x2).
	net.Phase("mmfast/products")
	net.ForEach(func(w int) {
		if w >= m {
			return
		}
		phat := ts.fullP[w]
		arena := slices.Grow(ts.bufs[w][:0], n*qd*qd)
		for x1 := 0; x1 < q; x1++ {
			for x2 := 0; x2 < q; x2++ {
				start := len(arena)
				for i := 0; i < qd; i++ {
					arena = append(arena, phat.Row(x1*qd + i)[x2*qd:(x2+1)*qd]...)
				}
				pieces.send(w, lay.nodeAt(x1, x2), arena[start:len(arena):len(arena)])
			}
		}
		ts.bufs[w] = arena
	})
	mail = pieces.flush()

	// Step 6: node (x1, x2) reads the m pieces in place and accumulates
	// P[i·x1∗, j·x2∗] = Σ_w λ_ijw P̂(w)[x1∗, x2∗], yielding P[∗x1∗, ∗x2∗].
	net.Phase("mmfast/decode")
	net.ForEach(func(v int) {
		out := slotAt(ts.acc, v, q, q)
		out.Fill(zero)
		piece := slotAt(ts.piece, v, qd, qd)
		for w := 0; w < m; w++ {
			ws := pieces.from(mail, v, w, 0)
			for i := 0; i < qd; i++ {
				piece.SetRow(i, ws[i*qd:(i+1)*qd])
			}
			for _, term := range scheme.Lambda[w] {
				matrix.ScaleAddToBlock(rg, out, term.I*qd, term.J*qd, term.C, piece)
			}
		}
	})

	// Step 7: node (x1, x2) sends P[u, ∗x2∗] to each row owner u ∈ ∗x1∗ as
	// rows of its accumulator.
	net.Phase("mmfast/assemble")
	net.ForEach(func(v int) {
		x1, _ := lay.label(v)
		out := ts.acc[v]
		for pos, u := range groups[x1] {
			rows.send(v, u, out.Row(pos))
		}
	})
	mail = rows.flush()

	p := GetMat[T](sc, n) // every column lies in exactly one group, so every entry is written
	net.ForEach(func(u int) {
		_, u2, _ := lay.split(u)
		row := p.Rows[u]
		for x2 := 0; x2 < q; x2++ {
			ws := rows.from(mail, u, lay.nodeAt(u2, x2), 0)
			for i, col := range groups[x2] {
				row[col] = ws[i]
			}
		}
	})
	return p, nil
}
