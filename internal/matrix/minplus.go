package matrix

import (
	"github.com/algebraic-clique/algclique/internal/ring"
)

// This file holds the min-plus kernels behind every distance product. The
// fast kernels (MulMinPlusInto, MulMinPlusWInto) are what MulInto
// dispatches to: branch-free inner loops — the min builtin compiles to
// conditional moves, and under GOAMD64=v3 the clamped add + min chain gets
// the v3 instruction selection — unrolled 4× so the loop overhead amortises
// over independent accumulator chains. The Ref twins are the original
// scalar kernels, kept as the differential-test references and as the
// reference side of BenchmarkMulMinPlus / BenchmarkMulMinPlusW (the fast
// kernels' rates are the yardstick's matrix.ns_per_madd.minplus_64 and
// minplusw_64, bench/micro.go).
//
// (min, +) over values has no tie-break state — min is commutative and
// associative — so any evaluation order is bit-identical; the witness
// algebra is order-sensitive, and MulMinPlusWInto keeps the reference's
// ascending-k, ascending-j order and exact MinPlusW.Less tie-breaks.

// MulMinPlusInto computes the distance product a⋆b into out, overwriting
// every entry.
//
//cc:hotpath
func MulMinPlusInto(out, a, b *Dense[int64]) {
	for i := range out.e {
		out.e[i] = ring.Inf
	}
	for jb := 0; jb < b.cols; jb += mulTileJ {
		je := jb + mulTileJ
		if je > b.cols {
			je = b.cols
		}
		for i := 0; i < a.rows; i++ {
			arow := a.e[i*a.cols : (i+1)*a.cols]
			orow := out.e[i*out.cols+jb : i*out.cols+je]
			for k, aik := range arow {
				if ring.IsInf(aik) {
					continue
				}
				brow := b.e[k*b.cols+jb : k*b.cols+je]
				if aik >= 0 {
					minPlusRowNonneg(orow, aik, brow)
				} else {
					minPlusRowNeg(orow, aik, brow)
				}
			}
		}
	}
}

// minPlusRowNonneg relaxes orow[j] = min(orow[j], aik + brow[j]) for a
// non-negative aik. Clamping bv at Inf keeps the loop branch-free and is
// bit-identical to skipping infinite entries when aik ≥ 0: aik < Inf so
// s ≤ 2·Inf never overflows, and s ≥ Inf never beats orow[j] ≤ Inf. The
// unconditional min-store replaces the reference kernel's conditional
// store, trading an unpredictable branch for a conditional move.
//
//cc:hotpath
func minPlusRowNonneg(orow []int64, aik int64, brow []int64) {
	n := len(orow)
	brow = brow[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		s0 := aik + min(brow[j], ring.Inf)
		s1 := aik + min(brow[j+1], ring.Inf)
		s2 := aik + min(brow[j+2], ring.Inf)
		s3 := aik + min(brow[j+3], ring.Inf)
		orow[j] = min(orow[j], s0)
		orow[j+1] = min(orow[j+1], s1)
		orow[j+2] = min(orow[j+2], s2)
		orow[j+3] = min(orow[j+3], s3)
	}
	for ; j < n; j++ {
		orow[j] = min(orow[j], aik+min(brow[j], ring.Inf))
	}
}

// minPlusRowNeg is the negative-aik relaxation: aik + Inf is still
// "infinite" but numerically below Inf, so infinite b entries must not
// compete. Substituting Inf for the sum when bv is infinite is equivalent
// to the reference's skip — min(orow[j], Inf) = orow[j] since every entry
// is ≤ Inf — and the if-assign compiles to a conditional move, keeping the
// loop free of unpredictable branches.
//
//cc:hotpath
func minPlusRowNeg(orow []int64, aik int64, brow []int64) {
	n := len(orow)
	brow = brow[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		b0, b1, b2, b3 := brow[j], brow[j+1], brow[j+2], brow[j+3]
		s0, s1, s2, s3 := aik+b0, aik+b1, aik+b2, aik+b3
		if b0 >= ring.Inf {
			s0 = ring.Inf
		}
		if b1 >= ring.Inf {
			s1 = ring.Inf
		}
		if b2 >= ring.Inf {
			s2 = ring.Inf
		}
		if b3 >= ring.Inf {
			s3 = ring.Inf
		}
		orow[j] = min(orow[j], s0)
		orow[j+1] = min(orow[j+1], s1)
		orow[j+2] = min(orow[j+2], s2)
		orow[j+3] = min(orow[j+3], s3)
	}
	for ; j < n; j++ {
		bv := brow[j]
		s := aik + bv
		if bv >= ring.Inf {
			s = ring.Inf
		}
		orow[j] = min(orow[j], s)
	}
}

// MulMinPlusRefInto is the original scalar min-plus kernel (reference).
func MulMinPlusRefInto(out, a, b *Dense[int64]) {
	for i := range out.e {
		out.e[i] = ring.Inf
	}
	for jb := 0; jb < b.cols; jb += mulTileJ {
		je := jb + mulTileJ
		if je > b.cols {
			je = b.cols
		}
		for i := 0; i < a.rows; i++ {
			arow := a.e[i*a.cols : (i+1)*a.cols]
			orow := out.e[i*out.cols+jb : i*out.cols+je]
			for k, aik := range arow {
				if ring.IsInf(aik) {
					continue
				}
				brow := b.e[k*b.cols+jb : k*b.cols+je]
				if aik >= 0 {
					for j, bv := range brow {
						if s := aik + min(bv, ring.Inf); s < orow[j] {
							orow[j] = s
						}
					}
					continue
				}
				for j, bv := range brow {
					if ring.IsInf(bv) {
						continue
					}
					if s := aik + bv; s < orow[j] {
						orow[j] = s
					}
				}
			}
		}
	}
}

// MulMinPlusWInto is the witness-carrying min-plus kernel: the algebra of
// the full-width witnessed distance product, which runs on a negative
// weight or a bound too wide for keys (a bounded product multiplies
// value·2^w + witness keys on MulMinPlusInto instead). It reproduces
// MinPlusW exactly: products take the right operand's witness (falling
// back to the left), and minima break value ties by MinPlusW.Less in
// ascending-k, ascending-j order, so the result matches the generic path
// bit for bit. The inner loop hoists the
// operand fields, inlines the Less comparison, and orders the value test
// first so the hot no-improvement path touches no witness state; the
// infinity skips stay (the witness algebra is order- and state-sensitive,
// so the value kernel's clamping trick does not apply to ties).
//
//cc:hotpath
func MulMinPlusWInto(out, a, b *Dense[ring.ValW]) {
	zero := ring.ValW{V: ring.Inf, W: ring.NoWitness}
	for i := range out.e {
		out.e[i] = zero
	}
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.cols; k++ {
			aik := arow[k]
			if ring.IsInf(aik.V) {
				continue
			}
			brow := b.Row(k)
			av, aw := aik.V, aik.W
			n := len(orow)
			brow = brow[:n]
			for j := 0; j < n; j++ {
				bv := brow[j]
				if bv.V >= ring.Inf {
					continue
				}
				v := av + bv.V
				o := orow[j]
				// MinPlusW.Less inlined: strictly smaller value, or an
				// equal value with a lesser witness (NoWitness last). The
				// value test runs before the witness is even computed —
				// on the hot no-improvement path nothing else executes.
				if v > o.V {
					continue
				}
				// MinPlusW.Mul: the right operand's witness, falling back
				// to the left when untagged.
				w := bv.W
				if w == ring.NoWitness {
					w = aw
				}
				if v == o.V && (w == ring.NoWitness ||
					(o.W != ring.NoWitness && w >= o.W)) {
					continue
				}
				orow[j] = ring.ValW{V: v, W: w}
			}
		}
	}
}

// MulMinPlusWRefInto is the original witness-carrying kernel (reference).
func MulMinPlusWRefInto(out, a, b *Dense[ring.ValW]) {
	zero := ring.ValW{V: ring.Inf, W: ring.NoWitness}
	mw := ring.MinPlusW{}
	for i := range out.e {
		out.e[i] = zero
	}
	for i := 0; i < a.rows; i++ {
		arow := a.Row(i)
		orow := out.Row(i)
		for k := 0; k < a.cols; k++ {
			aik := arow[k]
			if ring.IsInf(aik.V) {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				if ring.IsInf(bv.V) {
					continue
				}
				w := bv.W
				if w == ring.NoWitness {
					w = aik.W
				}
				cand := ring.ValW{V: aik.V + bv.V, W: w}
				if mw.Less(cand, orow[j]) {
					orow[j] = cand
				}
			}
		}
	}
}
