package distance

import (
	"fmt"
	"math/rand/v2"
	"slices"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// Oracle computes a distance product of distributed matrices; the witness
// machinery of §3.4 is generic over it, so it works with the semiring (3D)
// product, the Lemma 18 ring-embedded product, or the naive baseline. The
// operands stay the caller's; the product is the caller's too, to return to
// the network's free list once read.
type Oracle func(s, t *ccmm.RowMat[int64]) (*ccmm.RowMat[int64], error)

// MinPlusOracle adapts ccmm.MulMinPlusWith, on the network's working set, to
// the Oracle interface.
func MinPlusOracle(net *clique.Network, engine ccmm.Engine) Oracle {
	return func(s, t *ccmm.RowMat[int64]) (*ccmm.RowMat[int64], error) {
		return ccmm.MulMinPlusWith(net, engine, nil, s, t)
	}
}

// SmallWeightOracle adapts DistanceProductSmall (Lemma 18) to the Oracle
// interface for entries bounded by m.
func SmallWeightOracle(net *clique.Network, engine ccmm.Engine, m int64) Oracle {
	return func(s, t *ccmm.RowMat[int64]) (*ccmm.RowMat[int64], error) {
		return DistanceProductSmall(net, engine, s, t, m)
	}
}

// WitnessOpts configures FindWitnesses.
type WitnessOpts struct {
	// Seed drives the sampled column subsets.
	Seed uint64
	// Repetitions is the paper's c·log n trials per subset size; 0 selects
	// 4·(⌈log₂ n⌉+1).
	Repetitions int
}

// FindWitnesses recovers a witness matrix Q for a distance product
// P = S ⋆ T (Lemma 21, §3.4): Q[u][v] = w with S[u][w] + T[w][v] = P[u][v]
// for every finite entry, using only distance-product calls against the
// oracle plus O(1)-round verification exchanges.
//
// Pairs with a unique witness are found by O(log n) bit-masked products;
// general pairs by random column subsets of geometric sizes, each subset
// re-running the unique-witness probe. All candidates are explicitly
// verified in-network, so the result is always sound; if sampling fails to
// resolve every pair (probability n^{-Ω(1)} with the default repetitions),
// an error is returned.
func FindWitnesses(net *clique.Network, oracle Oracle, s, t, p *ccmm.RowMat[int64], opts WitnessOpts) (*ccmm.RowMat[int64], error) {
	n := net.N()
	if err := validateSameSize(n, s, t, p); err != nil {
		return nil, err
	}
	reps := opts.Repetitions
	if reps <= 0 {
		reps = 4 * (log2Ceil(n) + 1)
	}
	sc := ccmm.ScratchOf(net)
	q := ccmm.GetMat[int64](sc, n)
	resolved := make([][]bool, n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			q.Rows[u][v] = ring.NoWitness
			// Infinite product entries need no witness.
		}
		resolved[u] = make([]bool, n)
		for v := 0; v < n; v++ {
			resolved[u][v] = ring.IsInf(p.Rows[u][v])
		}
	}
	// Column view of T, used by every verification round (one round).
	net.Phase("witness/transpose")
	tcolMat := ccmm.Transpose(net, sc, t)
	defer ccmm.PutMat(sc, tcolMat)
	tcol := tcolMat.Rows

	full := make([]bool, n)
	for i := range full {
		full[i] = true
	}
	tryProbe := func(subset []bool) error {
		cand, err := uniqueWitnessProbe(net, oracle, s, t, subset)
		if err != nil {
			return err
		}
		defer ccmm.PutMat(sc, cand)
		return verifyAndMerge(net, s, p, tcol, cand, q, resolved)
	}
	// Unique-witness pass over the full column set.
	if err := tryProbe(full); err != nil {
		return nil, err
	}
	if allResolved(net, resolved) {
		return q, nil
	}
	// Sampling: subset sizes 2^i; each size repeated `reps` times. A pair
	// with r witnesses, n/2^{i+1} ≤ r < n/2^i, sees exactly one sampled
	// witness with constant probability (Seidel's argument).
	rng := rand.New(rand.NewPCG(opts.Seed, 0x9d2c5680))
	for i := 0; (1 << i) <= n; i++ {
		size := 1 << i
		for j := 0; j < reps; j++ {
			subset := make([]bool, n)
			for k := 0; k < size; k++ {
				subset[rng.IntN(n)] = true
			}
			if err := tryProbe(subset); err != nil {
				return nil, err
			}
			if allResolved(net, resolved) {
				return q, nil
			}
		}
	}
	missing := 0
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if !resolved[u][v] {
				missing++
			}
		}
	}
	return nil, fmt.Errorf("distance: witness sampling left %d pairs unresolved; increase Repetitions", missing)
}

func validateSameSize(n int, mats ...*ccmm.RowMat[int64]) error {
	for _, m := range mats {
		if m.N() != n {
			return fmt.Errorf("distance: matrix size %d on %d-node clique: %w", m.N(), n, ccmm.ErrSize)
		}
	}
	return nil
}

// uniqueWitnessProbe runs the bit-probing of §3.4 within the given column
// subset: for each bit position it multiplies the masked operands and marks
// the bit where the masked product equals the subset product. For pairs
// with a unique witness in the subset, the assembled index is that witness.
func uniqueWitnessProbe(net *clique.Network, oracle Oracle, s, t *ccmm.RowMat[int64], subset []bool) (*ccmm.RowMat[int64], error) {
	n := net.N()
	net.Phase("witness/probe")
	// Every masked operand and every probe product dies inside this
	// function and goes back to the network's free list; only the candidate
	// matrix leaves.
	sc := ccmm.ScratchOf(net)
	masked := func(keep []bool) (*ccmm.RowMat[int64], error) {
		ms, mt := maskCols(sc, s, keep), maskRows(sc, t, keep)
		defer ccmm.PutMat(sc, ms)
		defer ccmm.PutMat(sc, mt)
		return oracle(ms, mt)
	}
	base, err := masked(subset)
	if err != nil {
		return nil, err
	}
	defer ccmm.PutMat(sc, base)
	cand := ccmm.GetMat[int64](sc, n)
	for _, row := range cand.Rows {
		clear(row)
	}
	bits := log2Ceil(n)
	if bits == 0 {
		bits = 1 // n = 1 still needs one probe to identify index 0… trivially
	}
	for i := 0; i < bits; i++ {
		vi := make([]bool, n)
		for v := 0; v < n; v++ {
			vi[v] = subset[v] && (v>>i)&1 == 1
		}
		pi, err := masked(vi)
		if err != nil {
			return nil, err
		}
		for u := 0; u < n; u++ {
			prow, brow, crow := pi.Rows[u], base.Rows[u], cand.Rows[u]
			for v := 0; v < n; v++ {
				if !ring.IsInf(brow[v]) && prow[v] == brow[v] {
					crow[v] |= 1 << i
				}
			}
		}
		ccmm.PutMat(sc, pi)
	}
	// Pairs infinite in the subset product have no candidate.
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if ring.IsInf(base.Rows[u][v]) {
				cand.Rows[u][v] = ring.NoWitness
			}
		}
	}
	return cand, nil
}

func maskCols(sc *ccmm.Scratch, s *ccmm.RowMat[int64], keep []bool) *ccmm.RowMat[int64] {
	n := len(s.Rows)
	out := ccmm.GetMat[int64](sc, n)
	for u := 0; u < n; u++ {
		row, src := out.Rows[u], s.Rows[u]
		for v := 0; v < n; v++ {
			if keep[v] {
				row[v] = src[v]
			} else {
				row[v] = ring.Inf
			}
		}
	}
	return out
}

func maskRows(sc *ccmm.Scratch, t *ccmm.RowMat[int64], keep []bool) *ccmm.RowMat[int64] {
	n := len(t.Rows)
	out := ccmm.GetMat[int64](sc, n)
	for w := 0; w < n; w++ {
		row, src := out.Rows[w], t.Rows[w]
		for v := 0; v < n; v++ {
			if keep[w] {
				row[v] = src[v]
			} else {
				row[v] = ring.Inf
			}
		}
	}
	return out
}

// verifyAndMerge checks candidates in-network and records certified
// witnesses. Node u ships (w, S[u][w], P[u][v]) to v — three words per
// link; v, holding column v of T, confirms S[u][w] + T[w][v] = P[u][v] and
// answers with one bit. On the direct transport the probe and reply
// rounds are charged analytically and the verifier reads the three values
// in place — same verdicts, same ledger, no words materialised.
func verifyAndMerge(net *clique.Network, s, p *ccmm.RowMat[int64], tcol [][]int64, cand, q *ccmm.RowMat[int64], resolved [][]bool) error {
	if net.Transport() != clique.TransportWire {
		return verifyAndMergeDirect(net, s, p, tcol, cand, q, resolved)
	}
	n := net.N()
	net.Phase("witness/verify")
	type probe struct{ u, v int }
	asked := make([][]probe, n) // indexed by verifier v
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			w := cand.Rows[u][v]
			if resolved[u][v] || w < 0 || w >= int64(n) {
				continue
			}
			net.Send(u, v, clique.Word(w))
			net.Send(u, v, clique.Word(s.Rows[u][w]))
			net.Send(u, v, clique.Word(p.Rows[u][v]))
			asked[v] = append(asked[v], probe{u: u, v: v})
		}
	}
	mail := net.Flush()
	verdicts := make([][]bool, n)
	net.ForEach(func(v int) {
		verdicts[v] = make([]bool, n)
		mail.Each(v, func(src int, words []clique.Word) {
			w := int64(words[0])
			sval := int64(words[1])
			pval := int64(words[2])
			tval := tcol[v][w]
			if !ring.IsInf(sval) && !ring.IsInf(tval) && sval+tval == pval {
				verdicts[v][src] = true
			}
		})
	})
	// One-bit replies.
	for v := 0; v < n; v++ {
		for _, pr := range asked[v] {
			var bit clique.Word
			if verdicts[v][pr.u] {
				bit = 1
			}
			net.Send(v, pr.u, bit)
		}
	}
	reply := net.Flush()
	for u := 0; u < n; u++ {
		reply.Each(u, func(src int, words []clique.Word) {
			if words[0] == 1 {
				q.Rows[u][src] = cand.Rows[u][src]
				resolved[u][src] = true
			}
		})
	}
	return nil
}

// verifyAndMergeDirect is verifyAndMerge on the data plane: the same two
// charged exchanges (three probe words out, one verdict bit back, per
// unresolved candidate pair), with the verifier evaluating
// S[u][w] + T[w][v] = P[u][v] against the shared state directly.
func verifyAndMergeDirect(net *clique.Network, s, p *ccmm.RowMat[int64], tcol [][]int64, cand, q *ccmm.RowMat[int64], resolved [][]bool) error {
	n := net.N()
	net.Phase("witness/verify")
	probed := func(u, v int) bool {
		w := cand.Rows[u][v]
		return !resolved[u][v] && w >= 0 && w < int64(n)
	}
	var asked int64 // probed pairs on non-self links
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && probed(u, v) {
				asked++
			}
		}
	}
	var maxProbe int64
	if asked > 0 {
		maxProbe = 3
	}
	net.FlushAnalytic(maxProbe, 3*asked)
	verdicts := make([][]bool, n)
	net.ForEach(func(v int) {
		verdicts[v] = make([]bool, n)
		for u := 0; u < n; u++ {
			if !probed(u, v) {
				continue
			}
			w := cand.Rows[u][v]
			sval, tval := s.Rows[u][w], tcol[v][w]
			if !ring.IsInf(sval) && !ring.IsInf(tval) && sval+tval == p.Rows[u][v] {
				verdicts[v][u] = true
			}
		}
	})
	// One-bit replies.
	var maxReply int64
	if asked > 0 {
		maxReply = 1
	}
	net.FlushAnalytic(maxReply, asked)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if probed(u, v) && verdicts[v][u] {
				q.Rows[u][v] = cand.Rows[u][v]
				resolved[u][v] = true
			}
		}
	}
	return nil
}

// allResolved agrees globally (one broadcast round) on whether every pair
// has a witness.
func allResolved(net *clique.Network, resolved [][]bool) bool {
	return !net.Any(func(u int) bool { return slices.Contains(resolved[u], false) })
}

// RoutingFromDistances reconstructs a routing table from exact distances:
// the witness of the product W' ⋆ D (W' the weight matrix with the diagonal
// lifted to ∞) at (u, v) is a neighbour w of u with W(u,w) + d(w,v) =
// d(u,v) — a first hop. Witnesses come from FindWitnesses over the given
// oracle.
func RoutingFromDistances(net *clique.Network, oracle Oracle, w, d *ccmm.RowMat[int64], opts WitnessOpts) (*ccmm.RowMat[int64], error) {
	n := net.N()
	if err := validateSameSize(n, w, d); err != nil {
		return nil, err
	}
	sc := ccmm.ScratchOf(net)
	lifted := ccmm.GetMat[int64](sc, n)
	defer ccmm.PutMat(sc, lifted)
	// The target entries: distances, with the diagonal lifted to ∞ so that
	// the (trivially zero) pairs (u,u) are exempt from witness search — the
	// lifted product cannot reach 0 there.
	target := ccmm.GetMat[int64](sc, n)
	defer ccmm.PutMat(sc, target)
	for u := 0; u < n; u++ {
		copy(lifted.Rows[u], w.Rows[u])
		lifted.Rows[u][u] = ring.Inf
		copy(target.Rows[u], d.Rows[u])
		target.Rows[u][u] = ring.Inf
	}
	q, err := FindWitnesses(net, oracle, lifted, d, target, opts)
	if err != nil {
		return nil, err
	}
	for u := 0; u < n; u++ {
		q.Rows[u][u] = int64(u)
	}
	return q, nil
}
