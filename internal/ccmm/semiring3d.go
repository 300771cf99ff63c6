package ccmm

import (
	"slices"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// Semiring3D computes the distributed product P = S·T over an arbitrary
// semiring on an n-node clique for any n ≥ 1, following the 3D algorithm of
// §2.1 on the largest balanced cube that fits (cubeLayout): c ≤ n^{1/3}
// contiguous index groups of ⌊n/c⌋ or ⌈n/c⌉ = b indices, and c³ product
// subcubes, each of b×b blocks and each owned by a real node of its own.
// Block rows are padded with the semiring zero up to b entries, which
// annihilates under multiplication, so the product restricted to the real
// n×n block is unchanged. Each real node sends and receives O(n^{4/3})
// words, which the routing layer delivers in O(n^{1/3}) rounds; on a
// perfect cube the groups are the paper's digit groups and the algorithm
// is exactly the paper's.
//
// Subcube (u1, u2, u3) is the product of the S block rows u1, columns u2
// with the T block rows u2, columns u3 — v1∗∗ × v2∗∗ × v3∗∗ in the paper's
// notation; the paper's step-1 description contains a small index slip for
// T (receiving rows ∗v2∗ would not match the S columns v2∗∗), so T rows
// here are grouped like S rows: row w of T is needed by exactly the
// subcubes with u2 = group(w), keeping both middle-index sets equal.
//
// Message arenas, block operands, product subcubes, and the result come
// from sc and persist there across products (a nil sc is the network's
// own), so a pipeline of repeated multiplications runs the engine
// allocation-free in steady state once its results are returned to the
// free list. Block rows are typed messages, sent through the exchange
// port's cube mode (port.onCube), which moves them by reference (direct
// transport, words charged analytically) or as bulk-codec chunks (wire
// transport). A packing codec (ring.PackedBit, the bounded forms of
// ring.Packed) is honoured either way, since every cost is an EncodedLen
// sum of whole chunks.
func Semiring3D[T any](net *clique.Network, sc *Scratch, sr ring.Semiring[T], codec ring.Codec[T], s, t *RowMat[T]) (p *RowMat[T], err error) {
	defer catchAbort(&err)
	al := cubeAlgebra[T, T]{opZero: sr.Zero(), opCodec: codec, sr: sr, codec: codec, lift: copyRow[T]}
	return semiring3D(net, sc.orOf(net), al, s, t)
}

// cubeAlgebra is what the 3D body multiplies over. Operands of type A
// travel in the distribute phase, encoded by opCodec, with opZero for the
// padding columns; at the multiplying node lift turns each received
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

// appendPadded appends src and then the semiring zero up to b elements in
// all onto a typed message buffer: one padded block row.
func appendPadded[T any](dst, src []T, b int, zero T) []T {
	dst = append(dst, src...)
	for range b - len(src) {
		dst = append(dst, zero)
	}
	return dst
}

// semiring3D is the engine body: four phases over the balanced cube, with
// block rows gathered straight into per-node message arenas, received rows
// lifted straight into the block operands, and the step-3 partial products
// shipped as rows of the product subcubes.
//
// Subcube hosts are distinct real nodes, so every link carries at most one
// message per phase and a receiver reads each sender's first message; the
// schedule is oblivious — who exchanges with whom follows from n alone —
// so no headers travel.
func semiring3D[A, P any](net *clique.Network, sc *Scratch, al cubeAlgebra[A, P], s, t *RowMat[A]) (*RowMat[P], error) {
	n := net.N()
	if err := validatePair(n, s, t); err != nil {
		return nil, err
	}
	ta, tp := typedFrom[A](sc), typedFrom[P](sc)
	lay := newCubeLayout(n)
	c, b := lay.c, lay.b
	// Every message is whole padded block rows: operand rows in the
	// distribute phase, product rows in the products phase.
	pa := newPort[A](net, sc, chunks[A]{ring.AsBulk[A](al.opCodec), b}).onCube().oblivious()
	pp := newPort[P](net, sc, chunks[P]{ring.AsBulk[P](al.codec), b}).onCube().oblivious()
	sr, opZero := al.sr, al.opZero
	zero := sr.Zero()
	growBufs(&ta.bufs, n)
	growSlots(&tp.cubeS, n)
	growSlots(&tp.cubeT, n)
	growSlots(&tp.cubeProd, n)
	zeroRow := tp.zeroRowFor(zero, b)

	// Step 1: distribute entries. Node v, in group v1, sends S[v, group u2]
	// to subcube (v1, u2, u3) and T[v, group u3] to subcube (u1, v1, u3);
	// when both go to one subcube (u1 = u2 = v1) the S part precedes the T
	// part in one message.
	net.Phase("mm3d/distribute")
	net.ForEach(func(v int) {
		v1 := lay.group(v)
		srow, trow := s.Rows[v], t.Rows[v]
		arena := slices.Grow(ta.bufs[v][:0], 2*c*c*b)
		for u1 := 0; u1 < c; u1++ {
			for u2 := 0; u2 < c; u2++ {
				if u1 != v1 && u2 != v1 {
					continue
				}
				for u3 := 0; u3 < c; u3++ {
					start := len(arena)
					if u1 == v1 {
						arena = appendPadded(arena, srow[lay.lo(u2):lay.lo(u2+1)], b, opZero)
					}
					if u2 == v1 {
						arena = appendPadded(arena, trow[lay.lo(u3):lay.lo(u3+1)], b, opZero)
					}
					pa.send(v, lay.host(u1, u2, u3), arena[start:len(arena):len(arena)])
				}
			}
		}
		ta.bufs[v] = arena
	})
	mail := pa.flush()

	// Step 2: local multiplication of the received b×b blocks, each
	// received row lifted into the product type on its way in; a group
	// narrower than b leaves one padding row, the semiring zero. The
	// message from v carries its S part and, when u1 = u2, its T part
	// after it.
	net.Phase("mm3d/multiply")
	net.ForEach(func(r int) {
		u1, u2, _, ok := lay.subcube(r)
		if !ok {
			return
		}
		sblk := slotAt(tp.cubeS, r, b, b)
		tblk := slotAt(tp.cubeT, r, b, b)
		for pos := range b {
			v := lay.lo(u1) + pos
			if v >= lay.lo(u1+1) {
				sblk.SetRow(pos, zeroRow)
				if u1 == u2 {
					tblk.SetRow(pos, zeroRow)
				}
				continue
			}
			ws := pa.from(mail, r, v, 0)
			al.lift(sblk.Row(pos), ws[:b], -1)
			if u1 == u2 {
				al.lift(tblk.Row(pos), ws[b:2*b], v)
			}
		}
		if u1 != u2 {
			for pos := range b {
				v := lay.lo(u2) + pos
				if v >= lay.lo(u2+1) {
					tblk.SetRow(pos, zeroRow)
					continue
				}
				al.lift(tblk.Row(pos), pa.from(mail, r, v, 0), v)
			}
		}
		matrix.MulInto(sr, slotAt(tp.cubeProd, r, b, b), sblk, tblk)
	})

	// Step 3: distribute the partial products: subcube (u1, u2, u3) sends
	// row x − lo(u1) of its product to each row owner x in group u1 — the
	// padding row, if any, never travels.
	net.Phase("mm3d/products")
	net.ForEach(func(r int) {
		u1, _, _, ok := lay.subcube(r)
		if !ok {
			return
		}
		prod := tp.cubeProd[r]
		for x := lay.lo(u1); x < lay.lo(u1+1); x++ {
			pp.send(r, x, prod.Row(x-lay.lo(u1)))
		}
	})
	pmail := pp.flush()

	// Step 4: assemble P[x, ∗] = Σ_{u2} P^{(u2)}[x, ∗] by accumulating the
	// rows x received from the subcubes (x1, u2, u3).
	net.Phase("mm3d/assemble")
	p := GetMat[P](sc, n)
	net.ForEach(func(x int) {
		x1 := lay.group(x)
		row := p.Rows[x]
		for j := range row {
			row[j] = zero
		}
		for u2 := 0; u2 < c; u2++ {
			for u3 := 0; u3 < c; u3++ {
				piece := pp.from(pmail, x, lay.host(x1, u2, u3), 0)
				matrix.AddRowInto(sr, row[lay.lo(u3):lay.lo(u3+1)], piece)
			}
		}
	})
	return p, nil
}

// DistanceProduct3D computes the min-plus product P = S ⋆ T together with a
// witness matrix Q: Q[u][v] = w certifies P[u][v] = S[u][w] + T[w][v]
// (ring.NoWitness where P is infinite). This is the "easily modified"
// semiring algorithm of §3.3, with the tagging moved to where it is needed:
// the operands travel as min-plus entries, and the node that multiplies
// tags the rows of T it received with their row index — it knows it from
// the sender — before the blocks multiply. Only the partial products carry
// a witness across the network. The tagged product is untagged in place
// into P, so iterated squaring (APSP) holds only p and q — which are the
// caller's to return once dead. A nil sc is the network's own.
//
// bound is the entry bound the caller established; it may change from one
// call to the next (APSP passes each squaring its own). With bound < 0 —
// or too large a bound for the keys below (PackedWidths) — the product
// runs at full width: operands one word per entry, blocks multiplied over
// ring.MinPlusW, partials two words (value and witness).
//
// With bound ≥ 0 the caller promises that every finite entry of S, of T
// and of P lies in [0, bound]. The operands then travel in the bounded
// min-plus form (ring.PackedMinPlus, o = ⌈log₂(bound+2)⌉ bits), and the
// witness rides in a value's low w = ⌈log₂(n+1)⌉ bits: the multiplying
// node lifts an S entry x to the key x·2^w and a T entry x of row v to
// x·2^w + v, ∞ staying ring.Inf. A sum of two keys is then (a+b)·2^w + v,
// and the order of keys is (value, witness) — MinPlusW.Less on tagged
// entries, the only kind a finite partial is — so the blocks multiply and
// the partials assemble over plain ring.MinPlus, and P = key >> w,
// Q = key mod 2^w. The partials ship as (o+w)-bit keys whose top code is
// the key of (2^o − 2, 2^w − 1): a finite partial whose value lies above
// the operand field's top code 2^o − 2 ≥ bound is clamped to ∞ as it is
// encoded, and one in (bound, 2^o − 2] travels as it is. Neither changes
// the answer under the promise: every such partial exceeds the minimum it
// would compete with, which is at most bound, so it neither wins nor ties.
// Only the wire transport encodes; the direct one charges the same packed
// lengths and moves the keys by reference, so P and Q are the unbounded
// product's on both.
func DistanceProduct3D(net *clique.Network, sc *Scratch, s, t *RowMat[int64], bound int64) (p, q *RowMat[int64], err error) {
	defer catchAbort(&err)
	sc = sc.orOf(net)
	n := net.N()
	op, partial, ok := PackedWidths(bound, n)
	if !ok {
		return wideDistanceProduct(net, sc, s, t)
	}
	w := partial - op
	p, err = semiring3D(net, sc, keyedAlgebras[op][w], s, t)
	if err != nil {
		return nil, nil, err
	}
	q = GetMat[int64](sc, n)
	mask := int64(1)<<w - 1
	// Untagging is free node-local work; run it on the worker pool like
	// every other per-node step.
	net.ForEach(func(v int) {
		prow, qrow := p.Rows[v], q.Rows[v]
		for j, k := range prow {
			prow[j], qrow[j] = k>>w, k&mask
			if ring.IsInf(k) {
				prow[j], qrow[j] = ring.Inf, ring.NoWitness
			}
		}
	})
	return p, q, nil
}

// wideDistanceProduct is DistanceProduct3D at full width: the product over
// witness-tagged values, split into P and Q.
func wideDistanceProduct(net *clique.Network, sc *Scratch, s, t *RowMat[int64]) (p, q *RowMat[int64], err error) {
	pw, err := semiring3D(net, sc, witnessed, s, t)
	if err != nil {
		return nil, nil, err
	}
	defer PutMat(sc, pw)
	p, q = GetMat[int64](sc, net.N()), GetMat[int64](sc, net.N())
	net.ForEach(func(v int) {
		prow, qrow := p.Rows[v], q.Rows[v]
		for j, e := range pw.Rows[v] {
			prow[j], qrow[j] = e.V, e.W
			if ring.IsInf(e.V) {
				prow[j], qrow[j] = ring.Inf, ring.NoWitness
			}
		}
	})
	return p, q, nil
}

// maxKeyBits bounds o + w, the bits of a bounded distance product's keys.
// A finite operand key is at most (2^o − 2)·2^w + 2^w − 1, so a sum of two
// — every partial, which the direct transport moves unclamped — is at most
// 2^{o+w+1} − 3·2^w − 1. At o + w ≤ 60 that stays below ring.Inf = 2^61 − 1,
// so no finite partial reads as ∞, and the kernel's sums never overflow.
const maxKeyBits = 60

// PackedWidths returns the bits per entry a bounded distance product on n
// nodes ships: its operands' o and its partials' keys' o + w (value and
// witness bits together). ok is false when bound < 0, or when the keys
// would pass maxKeyBits, and the product runs at full width.
func PackedWidths(bound int64, n int) (operand, partial int, ok bool) {
	if bound < 0 || bound >= ring.Inf {
		return 0, 0, false
	}
	operand = ring.MinPlusBits(bound)
	partial = operand + ring.WitnessBits(n)
	return operand, partial, partial <= maxKeyBits
}

// keyedAlgebras[o][w] is the bounded distance product's cube algebra with
// operands in o bits and witnesses in w (o + w ≤ maxKeyBits): operands in
// the bounded min-plus form and partials as (o+w)-bit keys, both of whose
// tops are the operand field's top code 2^o − 2, not the bound that chose
// o. That clamps less than the bound would, and never more, so it changes
// no answer under the bound's promise (see DistanceProduct3D). Every width
// pair is built once, with one lift per w, so a loop whose bound follows
// its counter (APSP's squarings) builds no algebra however many widths it
// runs at.
var keyedAlgebras = func() (as [maxKeyBits][]cubeAlgebra[int64, int64]) {
	for w := 1; w < maxKeyBits; w++ {
		lift := keyLift(w)
		for o := 1; o+w <= maxKeyBits; o++ {
			if as[o] == nil {
				as[o] = make([]cubeAlgebra[int64, int64], maxKeyBits+1-o)
			}
			top := int64(ring.Packed{Bits: o}.Sentinel())
			as[o][w] = cubeAlgebra[int64, int64]{
				opZero:  ring.Inf,
				opCodec: ring.PackedMinPlus{Bits: o, Max: top - 1},
				sr:      ring.MinPlus{},
				codec:   ring.PackedMinPlus{Bits: o + w, Max: top<<w - 1},
				lift:    lift,
			}
		}
	}
	return as
}()

// keyLift returns the lift into w-bit-witness keys: a finite entry x of an
// S row to x·2^w, of T row v to x·2^w + v, an infinite one to ring.Inf.
func keyLift(w int) func(dst, src []int64, row int) {
	return func(dst, src []int64, row int) {
		tag := int64(max(row, 0))
		dst = dst[:len(src)]
		for j, x := range src {
			// One conditional move, not a branch: ∞ is an operand's
			// other common value.
			k := x<<w | tag
			if x >= ring.Inf {
				k = ring.Inf
			}
			dst[j] = k
		}
	}
}

// witnessed is the full-width distance product's cube algebra: min-plus
// operands, lifted at the multiplying node into witness-tagged values — an
// S entry untagged, a finite T entry tagged with its row index, an
// infinite entry the MinPlusW zero.
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
