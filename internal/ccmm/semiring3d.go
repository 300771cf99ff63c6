package ccmm

import (
	"slices"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// Semiring3D computes the distributed product P = S·T over an arbitrary
// semiring on an n-node clique for any n ≥ 1, following the 3D algorithm of
// §2.1. The index cube has side c = ⌈n^{1/3}⌉: the c³ virtual nodes each own
// one c²×c² product subcube, and real node v mod n simulates virtual node v
// (≤ ⌈c³/n⌉ ≤ 8 virtual nodes per real node). Rows and columns beyond n are
// padded with the semiring zero, which annihilates under multiplication, so
// the product restricted to the real n×n block is unchanged — and all-zero
// rows are never transmitted. Each real node sends and receives O(n^{4/3})
// words, which the routing layer delivers in O(n^{1/3}) rounds; on a perfect
// cube the virtual and real cliques coincide and the algorithm is exactly
// the paper's.
//
// Virtual node v's subcube is v1∗∗ × v2∗∗ × v3∗∗ in the paper's notation;
// the paper's step-1 description contains a small index slip for T
// (receiving rows ∗v2∗ would not match the S columns v2∗∗), so T rows here
// are grouped by their *first* digit: row w of T is needed by exactly the
// nodes u with u2 = w1, keeping both middle-index sets equal to v2∗∗.
//
// Message arenas, block operands, product subcubes, and the result come
// from sc and persist there across products (a nil sc is the network's
// own), so a pipeline of repeated multiplications runs the engine
// allocation-free in steady state once its results are returned to the
// free list. Block rows are typed messages between virtual nodes, sent
// through the exchange port's cube mode (port.onCube), which moves them by
// reference (direct transport, words charged analytically) or as bulk-codec
// chunks (wire transport). A packing codec (ring.PackedBool) is honoured
// either way, since every cost is an EncodedLen sum of whole chunks.
func Semiring3D[T any](net *clique.Network, sc *Scratch, sr ring.Semiring[T], codec ring.Codec[T], s, t *RowMat[T]) (*RowMat[T], error) {
	return runProduct(net, sc, func(net *clique.Network, sc *Scratch) (*RowMat[T], error) {
		al := cubeAlgebra[T, T]{opZero: sr.Zero(), opCodec: codec, sr: sr, codec: codec, lift: copyRow[T]}
		return semiring3D(net, sc, al, s, t)
	})
}

// cubeAlgebra is what the 3D body multiplies over. Operands of type A
// travel in the distribute phase, encoded by opCodec, with opZero for the
// padding columns; at the multiplying virtual node lift turns each received
// operand row into the product type P, in which the blocks multiply, the
// partial products travel (encoded by codec) and the result is assembled.
// lift's row is the operand row's index for a T row and −1 for an S row.
// When A and P are one type the lift is copyRow.
type cubeAlgebra[A, P any] struct {
	opZero  A
	opCodec ring.Codec[A]
	sr      ring.Semiring[P]
	codec   ring.Codec[P]
	lift    func(dst []P, src []A, row int)
}

func copyRow[T any](dst, src []T, _ int) { copy(dst, src) }

// semiring3D is the engine body: four phases over the padded cube, with
// block rows gathered straight into per-node message arenas, received rows
// lifted straight into the block operands, and the step-3 partial products
// shipped as rows of the product subcubes.
//
// Virtual node v's messages leave from real node v mod n and land on real
// node u mod n; each real link carries them in (virtual source, virtual
// destination) order. The schedule is oblivious — which virtual pairs
// exchange a message follows from (n, c) alone — so a receiver knows which
// of a link's messages is the one for its virtual node (cubeLayout.before)
// and no headers travel.
func semiring3D[A, P any](net *clique.Network, sc *Scratch, al cubeAlgebra[A, P], s, t *RowMat[A]) (*RowMat[P], error) {
	n := net.N()
	if err := validatePair(n, s, t); err != nil {
		return nil, err
	}
	ta, tp := typedFrom[A](sc), typedFrom[P](sc)
	lay := newCubeLayout(n)
	c, vn := lay.c, lay.vn
	c2 := c * c
	// Every message is whole block rows: operand rows in the distribute
	// phase, product rows in the products phase.
	pa := newPort[A](net, sc, chunks[A]{ring.AsBulk[A](al.opCodec), c2}).onCube()
	pp := newPort[P](net, sc, chunks[P]{ring.AsBulk[P](al.codec), c2}).onCube()
	sr, opZero := al.sr, al.opZero
	zero := sr.Zero()
	live := lay.liveDigits()
	// alive reports whether virtual node u's subcube touches real data;
	// dead subcubes receive nothing and compute nothing (see liveDigits).
	alive := func(u int) bool {
		u1, u2, u3 := lay.split(u)
		return u1 < live && u2 < live && u3 < live
	}

	// Precompute the c index groups x∗∗ (shared, read-only).
	groups := make([][]int, c)
	for x := 0; x < c; x++ {
		groups[x] = lay.firstDigitSet(x)
	}
	growBufs(&ta.bufs, n)
	growSlots(&tp.cubeS, n)
	growSlots(&tp.cubeT, n)
	growSlots(&tp.cubeProd, vn)
	zeroRow := tp.zeroRowFor(zero, c2)

	// Step 1: distribute entries. Virtual node v < n sends S[v, u2∗∗] to
	// each u ∈ v1∗∗ and T[v, u3∗∗] to each u with u2 = v1; column indices
	// ≥ n read as the semiring zero. Virtual nodes v ≥ n own all-zero
	// padding rows, which every node can synthesise locally, so they send
	// nothing. When both an S and a T part go to the same recipient the S
	// part precedes the T part. (v < n implies v1 < live, so every
	// recipient is alive; dead subcubes get nothing.)
	net.Phase("mm3d/distribute")
	net.ForEach(func(v int) {
		// The sending virtual nodes are exactly v < n, each hosted by
		// real node v itself: every real node ships its own row slices,
		// to its recipients in increasing order.
		v1, _, _ := lay.split(v)
		srow, trow := s.Rows[v], t.Rows[v]
		arena := slices.Grow(ta.bufs[v][:0], 2*live*live*c2)
		for u1 := 0; u1 < live; u1++ {
			for u2 := 0; u2 < live; u2++ {
				if u1 != v1 && u2 != v1 {
					continue
				}
				for u3 := 0; u3 < live; u3++ {
					start := len(arena)
					if u1 == v1 {
						arena = appendCols(arena, srow, groups[u2], n, opZero)
					}
					if u2 == v1 {
						arena = appendCols(arena, trow, groups[u3], n, opZero)
					}
					pa.send(v, lay.real(lay.join(u1, u2, u3)), arena[start:len(arena):len(arena)])
				}
			}
		}
		ta.bufs[v] = arena
	})
	mail := pa.flush()

	// Step 2: local multiplication of the received c²×c² blocks, each
	// received row lifted into the product type on its way in. Rows from
	// padding senders (v ≥ n) are the semiring zero; the message from v
	// carries its S part and, when u1 = u2, its T part after it.
	net.Phase("mm3d/multiply")
	net.ForEach(func(r int) {
		sblk := slotAt(tp.cubeS, r, c2, c2)
		tblk := slotAt(tp.cubeT, r, c2, c2)
		for u := r; u < vn; u += n {
			if !alive(u) {
				continue
			}
			u1, u2, _ := lay.split(u)
			// msg returns sender v's message to u: v reaches the nodes hosted
			// with u in increasing order, skipping those it sends nothing.
			msg := func(v int) []A {
				v1, _, _ := lay.split(v)
				k := lay.before(u, func(w int) bool {
					w1, w2, _ := lay.split(w)
					return alive(w) && (w1 == v1 || w2 == v1)
				})
				return pa.from(mail, r, v, k)
			}
			for pos, v := range groups[u1] { // S row senders: v1 = u1
				if v >= n {
					sblk.SetRow(pos, zeroRow)
					if u1 == u2 {
						tblk.SetRow(pos, zeroRow)
					}
					continue
				}
				ws := msg(v)
				al.lift(sblk.Row(pos), ws[:c2], -1)
				if u1 == u2 {
					al.lift(tblk.Row(pos), ws[c2:2*c2], v)
				}
			}
			if u1 != u2 {
				for pos, v := range groups[u2] { // T row senders: v1 = u2
					if v >= n {
						tblk.SetRow(pos, zeroRow)
						continue
					}
					al.lift(tblk.Row(pos), msg(v)[:c2], v)
				}
			}
			prod := slotAt(tp.cubeProd, u, c2, c2)
			matrix.MulInto(sr, prod, sblk, tblk)
		}
	})

	// Step 3: distribute the partial products: virtual node u sends
	// P^{(u2)}[x, u3∗∗] to each real row owner x ∈ u1∗∗ with x < n
	// (padding rows of the output are discarded, so they never travel) —
	// as rows of the product subcube.
	net.Phase("mm3d/products")
	net.ForEach(func(r int) {
		for u := r; u < vn; u += n {
			if !alive(u) {
				continue // the product subcube was never built
			}
			u1, _, _ := lay.split(u)
			prod := tp.cubeProd[u]
			for pos, x := range groups[u1] {
				if x < n {
					pp.send(r, x, prod.Row(pos))
				}
			}
		}
	})
	pmail := pp.flush()

	// Step 4: assemble P[x, ∗] = Σ_w P^{(w)}[x, ∗] by accumulating the
	// received rows. Output row owners are the virtual nodes x < n, each
	// hosted by real node x itself.
	net.Phase("mm3d/assemble")
	p := GetMat[P](sc, n)
	net.ForEach(func(x int) {
		x1, _, _ := lay.split(x)
		row := p.Rows[x]
		for j := range row {
			row[j] = zero
		}
		for _, u := range groups[x1] { // senders: the live u with u1 = x1
			if !alive(u) {
				continue
			}
			_, _, u3 := lay.split(u)
			// The nodes hosted with u send x a row each in increasing order,
			// the live ones with first digit x1.
			k := lay.before(u, func(w int) bool {
				w1, _, _ := lay.split(w)
				return alive(w) && w1 == x1
			})
			piece := pp.from(pmail, x, lay.real(u), k)
			for i, col := range groups[u3] {
				if col < n {
					row[col] = sr.Add(row[col], piece[i])
				}
			}
		}
	})
	return p, nil
}

// DistanceProduct3D computes the min-plus product P = S ⋆ T together with a
// witness matrix Q: Q[u][v] = w certifies P[u][v] = S[u][w] + T[w][v]
// (ring.NoWitness where P is infinite). This is the "easily modified"
// semiring algorithm of §3.3, with the tagging moved to where it is needed:
// the operands travel as one-word min-plus entries, and the virtual node
// that multiplies tags the rows of T it received with their row index — it
// knows it from the sender — before the blocks multiply over ring.MinPlusW.
// Only the partial products carry a witness across the network. The tagged
// product is a free-list matrix that goes back before the call returns, so
// iterated squaring (APSP) holds only p and q — which are the caller's to
// return once dead. A nil sc is the network's own.
func DistanceProduct3D(net *clique.Network, sc *Scratch, s, t *RowMat[int64]) (p, q *RowMat[int64], err error) {
	pq, err := runProduct(net, sc, func(net *clique.Network, sc *Scratch) ([2]*RowMat[int64], error) {
		pw, err := semiring3D(net, sc, witnessed, s, t)
		if err != nil {
			return [2]*RowMat[int64]{}, err
		}
		defer PutMat(sc, pw)
		p, q := GetMat[int64](sc, net.N()), GetMat[int64](sc, net.N())
		// Untagging is free node-local work; run it on the worker pool like
		// every other per-node step.
		net.ForEach(func(v int) {
			prow, qrow := p.Rows[v], q.Rows[v]
			for j, e := range pw.Rows[v] {
				prow[j], qrow[j] = e.V, e.W
				if ring.IsInf(e.V) {
					prow[j], qrow[j] = ring.Inf, ring.NoWitness
				}
			}
		})
		return [2]*RowMat[int64]{p, q}, nil
	})
	return pq[0], pq[1], err
}

// witnessed is the distance product's cube algebra: min-plus operands,
// lifted at the multiplying node into witness-tagged values — an S entry
// untagged, a finite T entry tagged with its row index, an infinite entry
// the MinPlusW zero.
var witnessed = cubeAlgebra[int64, ring.ValW]{
	opZero:  ring.Inf,
	opCodec: ring.MinPlus{},
	sr:      ring.MinPlusW{},
	codec:   ring.MinPlusW{},
	lift: func(dst []ring.ValW, src []int64, row int) {
		w := ring.NoWitness
		if row >= 0 {
			w = int64(row)
		}
		for j, x := range src {
			if ring.IsInf(x) {
				dst[j] = ring.ValW{V: ring.Inf, W: ring.NoWitness}
			} else {
				dst[j] = ring.ValW{V: x, W: w}
			}
		}
	},
}
