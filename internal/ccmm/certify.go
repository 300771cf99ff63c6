package ccmm

import (
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// This file is the detection half of the fault plane: cheap distributed
// checks that a computed product C really equals A·B, run on the same
// clique (and charged to the same ledger) as the product itself.
//
// Two regimes, because the algebra decides what a cheap check can prove:
//
//   - Rings (integer, Z_p): Freivalds' certificate. Each probe draws a
//     shared pseudorandom x ∈ {0,1}ⁿ from the seed, computes y = Bx with
//     one broadcast round, and every node v checks (A·y)_v = (C·x)_v
//     locally. If C ≠ A·B then the difference D = A·B − C has a nonzero
//     entry, and for x uniform over {0,1}ⁿ, Pr[Dx = 0] ≤ 1/2 — the
//     standard cancellation argument, which needs subtraction (a ring
//     embedding into an integral domain). k independent probes push the
//     false-accept probability below 2⁻ᵏ at O(k) rounds total.
//
//   - Semirings (min-plus, Boolean): no subtraction, no cancellation — a
//     wrong entry can hide inside min or OR, so Freivalds proves nothing.
//     Instead each node deterministically re-derives s seed-chosen entries
//     of its own output row from first principles: node v picks s columns,
//     every node w ships B[w][j] for those columns (s·width words per
//     link, one flush), and v recomputes C[v][j] = ⊕_k A[v][k] ⊗ B[k][j].
//     This is a spot-check, not a certificate: it catches any corruption
//     touching a sampled entry, and s = n audits the entire row.
//
// Both checks end with a one-round verdict broadcast so every node (and
// the caller) agrees on pass/fail, and both convert simulator aborts —
// including faults injected into the certification traffic itself — into
// typed errors, so a fault storm during certification reads as a failed
// attempt, never a wrong verdict.

// certMix is the SplitMix64 finaliser (same mixer the fault injector
// uses), duplicated here to keep the derivation local and frozen: probe
// vectors and spot-check columns must be identical across processes for
// replayed chaos campaigns.
func certMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// certBit is bit j of the probe-th shared Freivalds vector: every node
// derives it locally from the shared seed, so the vector costs no
// communication.
func certBit(seed uint64, probe, j int) bool {
	h := certMix(seed ^ uint64(probe)*0x9e3779b97f4a7c15)
	return certMix(h^uint64(j))&1 == 1
}

// certCols returns the s distinct columns node v spot-checks, derived
// from the seed by a partial Fisher–Yates shuffle of [0, n).
func certCols(seed uint64, v, n, s int) []int {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	h := certMix(seed ^ 0xc2b2ae3d27d4eb4f ^ uint64(v))
	for i := 0; i < s; i++ {
		h = certMix(h)
		j := i + int(h%uint64(n-i))
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:s]
}

// CertifyFreivalds runs probes rounds of Freivalds' check on c = a·b over
// a ring, returning whether every probe accepted. A wrong product is
// accepted with probability at most 2^-probes (over the seed-derived probe
// vectors) when the ring embeds in an integral domain — which is why this
// check is reserved for genuine rings; semiring products go through
// CertifySpotCheck. Cost: codec-width rounds of broadcast plus one verdict
// round per probe. Simulator aborts (round budget, cancellation, faults
// injected into the certification traffic) surface as typed errors.
func CertifyFreivalds[T any](net *clique.Network, rg ring.Ring[T], cd ring.Codec[T], a, b, c *RowMat[T], probes int, seed uint64) (ok bool, err error) {
	defer catchAbort(&err)
	n := net.N()
	if err := a.validate(n); err != nil {
		return false, err
	}
	if err := b.validate(n); err != nil {
		return false, err
	}
	if err := c.validate(n); err != nil {
		return false, err
	}
	if probes <= 0 {
		probes = 1
	}
	w := cd.Width()
	enc := make([]clique.Word, n*w)
	vecs := make([][]clique.Word, n)
	for v := range vecs {
		vecs[v] = enc[v*w : (v+1)*w]
	}
	y := make([]T, n)
	bad := make([]bool, n)
	for p := 0; p < probes; p++ {
		// y_v = (B·x)_v is local to node v, which owns row v of B.
		net.ForEach(func(v int) {
			acc := rg.Zero()
			for j, bv := range b.Rows[v] {
				if certBit(seed, p, j) {
					acc = rg.Add(acc, bv)
				}
			}
			cd.Encode(acc, vecs[v])
		})
		got := net.Broadcast(vecs)
		for v := 0; v < n; v++ {
			y[v] = cd.Decode(got[v])
		}
		// Node v owns rows v of A and C: both sides of the probe identity
		// (A·y)_v = (C·x)_v are local once y arrived.
		net.ForEach(func(v int) {
			lhs, rhs := rg.Zero(), rg.Zero()
			arow, crow := a.Rows[v], c.Rows[v]
			for j := 0; j < n; j++ {
				lhs = rg.Add(lhs, rg.Mul(arow[j], y[j]))
				if certBit(seed, p, j) {
					rhs = rg.Add(rhs, crow[j])
				}
			}
			bad[v] = !rg.Equal(lhs, rhs)
		})
		if net.Any(func(v int) bool { return bad[v] }) {
			return false, nil
		}
	}
	return true, nil
}

// CertifySpotCheck re-derives samples seed-chosen entries of every output
// row of c = a·b over a semiring and returns whether all of them match.
// Unlike Freivalds it needs no subtraction, so it is the check for
// min-plus and Boolean products; the price is coverage instead of a
// probabilistic certificate — a corruption is caught iff a sampled entry
// depends on it. samples is clamped to [1, n]; samples = n audits every
// entry of every row. Cost: samples·width rounds of point-to-point
// traffic in one flush, plus one verdict round.
func CertifySpotCheck[T any](net *clique.Network, sr ring.Semiring[T], cd ring.Codec[T], a, b, c *RowMat[T], samples int, seed uint64) (ok bool, err error) {
	defer catchAbort(&err)
	n := net.N()
	if err := a.validate(n); err != nil {
		return false, err
	}
	if err := b.validate(n); err != nil {
		return false, err
	}
	if err := c.validate(n); err != nil {
		return false, err
	}
	if samples <= 0 {
		samples = 1
	}
	if samples > n {
		samples = n
	}
	w := cd.Width()
	cols := make([][]int, n)
	for v := range cols {
		cols[v] = certCols(seed, v, n, samples)
	}
	// Column j of B is scattered one entry per node; every node ships its
	// entry of each column v asked for. The column choice is seed-derived,
	// so senders know it without a request round.
	enc := make([]clique.Word, w)
	for src := 0; src < n; src++ {
		for v := 0; v < n; v++ {
			if v == src {
				continue
			}
			for _, j := range cols[v] {
				cd.Encode(b.Rows[src][j], enc)
				net.SendVec(src, v, enc)
			}
		}
	}
	mail := net.Flush()
	bad := make([]bool, n)
	net.ForEach(func(v int) {
		for i, j := range cols[v] {
			acc := sr.Zero()
			for k := 0; k < n; k++ {
				var bkj T
				if k == v {
					bkj = b.Rows[v][j]
				} else {
					vec := mail.From(v, k)
					if len(vec) < (i+1)*w {
						// A dropped delivery fails the check rather than
						// vouching for entries it cannot recompute.
						bad[v] = true
						return
					}
					bkj = cd.Decode(vec[i*w : (i+1)*w])
				}
				acc = sr.Add(acc, sr.Mul(a.Rows[v][k], bkj))
			}
			if !sr.Equal(acc, c.Rows[v][j]) {
				bad[v] = true
				return
			}
		}
	})
	if net.Any(func(v int) bool { return bad[v] }) {
		return false, nil
	}
	return true, nil
}

// boolInt64 views the session layer's 0/1 int64 matrices as the Boolean
// semiring (any nonzero entry is true), so Boolean products can be
// spot-checked in their native representation.
type boolInt64 struct{}

func (boolInt64) Zero() int64 { return 0 }
func (boolInt64) One() int64  { return 1 }
func (boolInt64) Add(a, b int64) int64 {
	if a != 0 || b != 0 {
		return 1
	}
	return 0
}
func (boolInt64) Mul(a, b int64) int64 {
	if a != 0 && b != 0 {
		return 1
	}
	return 0
}
func (boolInt64) Equal(a, b int64) bool { return (a != 0) == (b != 0) }

// CertifyIntProduct is Freivalds' check for integer products — the
// session layer's MatMul results.
func CertifyIntProduct(net *clique.Network, a, b, c *RowMat[int64], probes int, seed uint64) (bool, error) {
	r := ring.Int64{}
	return CertifyFreivalds[int64](net, r, r, a, b, c, probes, seed)
}

// CertifyBoolProduct spot-checks a Boolean product in the session layer's
// 0/1 int64 representation (OR has no inverse, so Freivalds does not
// apply).
func CertifyBoolProduct(net *clique.Network, a, b, c *RowMat[int64], samples int, seed uint64) (bool, error) {
	return CertifySpotCheck[int64](net, boolInt64{}, ring.Int64{}, a, b, c, samples, seed)
}

// CertifyMinPlusProduct spot-checks a distance product (min has no
// inverse, so Freivalds does not apply).
func CertifyMinPlusProduct(net *clique.Network, a, b, c *RowMat[int64], samples int, seed uint64) (bool, error) {
	mp := ring.MinPlus{}
	return CertifySpotCheck[int64](net, mp, mp, a, b, c, samples, seed)
}
