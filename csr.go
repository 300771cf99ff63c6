package algclique

import (
	"fmt"
	"math/bits"
	"slices"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/matrix"
)

// This file is the session surface of the CSR operand plane: matrix
// products and iterated-product algorithms whose operands, intermediates,
// and (density permitting) results are compressed sparse rows, so a
// product on a ρ-nonzero instance costs Θ(n + ρ + traffic) memory however
// large n² is. The density-aware planner stays in charge: each product
// runs its census on the row-pointer differences (free — no dense scan
// exists to do), routes sparse when the predicted sparse schedule wins,
// and otherwise densifies through the session's pooled buffers — except
// above the densification cap, where falling back would allocate exactly
// the Θ(n²) state the CSR plane exists to avoid: there the product skips
// the census and runs the sparse engine, and errors with
// ErrSparseTooDense if that engine refuses the operands.

// CSR is an n×n sparse matrix in compressed-sparse-row form: row v's
// entries are Col[RowPtr[v]:RowPtr[v+1]] (strictly increasing column
// indices) paired with Val[RowPtr[v]:RowPtr[v+1]]. Entries not stored are
// the operation's zero — 0 for integer and Boolean products, Inf for
// min-plus — and a nil Val means every stored entry is the operation's
// one (1 for integer/Boolean, weight 0 for min-plus): the adjacency
// encoding, stored structure only.
type CSR struct {
	N      int
	RowPtr []int64
	Col    []int32
	Val    []int64
}

// NNZ returns the stored-entry count.
func (m *CSR) NNZ() int64 {
	if len(m.RowPtr) == 0 {
		return 0
	}
	return m.RowPtr[m.N]
}

// CSRFromMat compresses a dense matrix, keeping entries different from
// zero (pass 0 for integer/Boolean matrices, Inf for distance matrices).
func CSRFromMat(rows Mat, zero int64) (*CSR, error) {
	n, err := squareSize(rows, rows)
	if err != nil {
		return nil, err
	}
	out := &CSR{N: n, RowPtr: make([]int64, n+1)}
	for v, row := range rows {
		for j, x := range row {
			if x != zero {
				out.Col = append(out.Col, int32(j))
				out.Val = append(out.Val, x)
			}
		}
		out.RowPtr[v+1] = int64(len(out.Col))
	}
	return out, nil
}

// Dense expands the matrix, filling unstored entries with zero and
// stored-but-valueless entries (nil Val) with one.
func (m *CSR) Dense(zero, one int64) Mat {
	out := make(Mat, m.N)
	for v := 0; v < m.N; v++ {
		row := make([]int64, m.N)
		if zero != 0 {
			for j := range row {
				row[j] = zero
			}
		}
		lo, hi := m.RowPtr[v], m.RowPtr[v+1]
		for i := lo; i < hi; i++ {
			if m.Val == nil {
				row[m.Col[i]] = one
			} else {
				row[m.Col[i]] = m.Val[i]
			}
		}
		out[v] = row
	}
	return out
}

// CSRProduct is the result of a CSR product: exactly one field is set.
// Sparse is the product when it stayed on the CSR plane; Dense is the
// expanded result when the planner routed (or fell back) to a dense
// engine because the operands or the fill-in were too dense — the values
// are bit-identical between the two forms, only the representation
// follows the density.
type CSRProduct struct {
	Sparse *CSR
	Dense  Mat
}

// IsSparse reports whether the product stayed on the CSR plane.
func (p CSRProduct) IsSparse() bool { return p.Sparse != nil }

// validate checks the operand's structure at the trust boundary, before
// anything indexes it: a malformed CSR is an error wrapping ErrSize, never
// a panic.
func (m *CSR) validate() error {
	v := matrix.CSR[int64]{N: m.N, RowPtr: m.RowPtr, Col: m.Col, Val: m.Val}
	if err := v.Validate(); err != nil {
		return fmt.Errorf("algclique: malformed CSR operand: %v: %w", err, ccmm.ErrSize)
	}
	return nil
}

// checkRange checks the stored entries of a validated min-plus operand
// against lim.
func (m *CSR) checkRange(lim int64) error {
	for u := 0; u < m.N && m.Val != nil; u++ {
		for k := m.RowPtr[u]; k < m.RowPtr[u+1]; k++ {
			if err := checkRange(u, int(m.Col[k]), m.Val[k], lim); err != nil {
				return err
			}
		}
	}
	return nil
}

// csrPairSize validates a CSR operand pair: each operand's structure, then
// the sizes against each other.
func csrPairSize(a, b *CSR) (int, error) {
	if err := a.validate(); err != nil {
		return 0, err
	}
	if b != a {
		if err := b.validate(); err != nil {
			return 0, err
		}
	}
	if a.N != b.N {
		return 0, fmt.Errorf("algclique: CSR operand sizes %d and %d differ: %w", a.N, b.N, ccmm.ErrSize)
	}
	return a.N, nil
}

// padCSRTo views a CSR operand on a padded clique of size n: the padding
// rows are empty, so the padded product restricted to the original block
// is unchanged. Zero-copy when no padding is needed; otherwise only the
// row-pointer array is rebuilt (the entry arrays are shared). The operand
// has been validated.
func padCSRTo(m *CSR, n int) *matrix.CSR[int64] {
	out := &matrix.CSR[int64]{N: n, RowPtr: m.RowPtr, Col: m.Col, Val: m.Val}
	if m.N != n {
		out.RowPtr = make([]int64, n+1)
		copy(out.RowPtr, m.RowPtr)
		for v := m.N + 1; v <= n; v++ {
			out.RowPtr[v] = m.RowPtr[m.N]
		}
	}
	return out
}

// truncCSR clips an engine result on a padded clique back to the original
// instance. Padding rows are empty and padded columns unreachable except
// through entries this clips away (the self-loops iterated algorithms
// seed), so dropping the tail of each array is exact.
func truncCSR(m *matrix.CSR[int64], orig int) *CSR {
	if m.N == orig {
		return &CSR{N: m.N, RowPtr: m.RowPtr, Col: m.Col, Val: m.Val}
	}
	nnz := m.RowPtr[orig]
	out := &CSR{N: orig, RowPtr: m.RowPtr[:orig+1], Col: m.Col[:nnz]}
	if m.Val != nil {
		out.Val = m.Val[:nnz]
	}
	return out
}

// publicProduct converts an engine product to the public form, clipping
// padding and pooling a densified result's buffer after the copy out.
func (r *opRun) publicProduct(p ccmm.CSRProduct[int64]) CSRProduct {
	if p.Sparse != nil {
		return CSRProduct{Sparse: truncCSR(p.Sparse, r.orig)}
	}
	out := CSRProduct{Dense: truncateRows(p.Dense, r.orig)}
	r.recycle(p.Dense)
	return out
}

// csrProduct is the shared harness for the one-product CSR entry points:
// op is the ledger name, spec the product table row whose routed CSR
// product runs.
func (s *Clique) csrProduct(op string, spec *productSpec, a, b *CSR, opts []CallOption) (prod CSRProduct, stats Stats, err error) {
	orig, err := csrPairSize(a, b)
	if err != nil {
		return CSRProduct{}, Stats{}, err
	}
	if spec.class == minPlusSize {
		if err := a.checkRange(entryLimit); err != nil {
			return CSRProduct{}, Stats{}, err
		}
		if err := b.checkRange(entryLimit); err != nil {
			return CSRProduct{}, Stats{}, err
		}
	}
	r, err := s.begin(op, orig, spec.class, opts)
	if err != nil {
		return CSRProduct{}, Stats{}, err
	}
	defer r.end(&stats, &err)
	pa := padCSRTo(a, r.n)
	pb := pa
	if b != a {
		pb = padCSRTo(b, r.n)
	}
	var p ccmm.CSRProduct[int64]
	if p, r.route, err = spec.mulCSR(r.plan, r.net, r.sc, pa, pb); err == nil {
		prod = r.publicProduct(p)
	}
	return
}

// MatMulCSR multiplies two n×n integer matrices given as compressed
// sparse rows, never materialising a dense operand unless the density
// census routes the product to a dense engine (Stats.Routing reports the
// decision; above the densification cap no census runs, the product runs
// sparse, and a too-dense one returns ErrSparseTooDense). The result is
// sparse whenever the product ran on the CSR plane.
func (s *Clique) MatMulCSR(a, b *CSR, opts ...CallOption) (CSRProduct, Stats, error) {
	return s.csrProduct("MatMulCSR", &matMulSpec, a, b, opts)
}

// MatMulBoolCSR computes the Boolean product of CSR matrices. Stored
// entries are read as true whatever their value (store only true entries;
// a nil Val is the usual adjacency encoding), and a sparse result comes
// back value-free — every stored entry is 1.
func (s *Clique) MatMulBoolCSR(a, b *CSR, opts ...CallOption) (CSRProduct, Stats, error) {
	return s.csrProduct("MatMulBoolCSR", &matMulBoolSpec, a, b, opts)
}

// DistanceProductCSR computes the min-plus product of CSR distance
// matrices: unstored entries are +∞, so a sparse distance matrix stores
// exactly its finite entries, and a nil Val means every stored edge has
// weight 0. As for DistanceProduct, a finite entry x with |x| ≥ Inf/2 is
// refused with ErrOutOfRange.
func (s *Clique) DistanceProductCSR(a, b *CSR, opts ...CallOption) (CSRProduct, Stats, error) {
	return s.csrProduct("DistanceProductCSR", &distanceProductSpec, a, b, opts)
}

// SquareAdjacencyCSR computes A² (2-walk counts) of a CSR adjacency
// matrix — the CSR-native form of SquareAdjacencySparse, with the Auto
// census in charge instead of a forced engine: sparse adjacencies square
// on the CSR plane in O(1) rounds without ever allocating a dense row,
// dense ones densify through the planner (below the cap). A nil Val is
// the natural encoding.
func (s *Clique) SquareAdjacencyCSR(a *CSR, opts ...CallOption) (CSRProduct, Stats, error) {
	return s.csrProduct("SquareAdjacencyCSR", &matMulSpec, a, a, opts)
}

// withDiagonal merges the identity's entries into a CSR view: every row
// gains a (v, v, diag) entry unless it already stores column v, in which
// case the stored entry wins. It is how the iterated-squaring loops seed
// their reflexive base case without a dense pass.
func withDiagonal(m *matrix.CSR[int64], n int, diag int64, keepVal bool) *matrix.CSR[int64] {
	out := &matrix.CSR[int64]{N: n, RowPtr: make([]int64, n+1)}
	out.Col = make([]int32, 0, int64(n)+m.RowPtr[n])
	if keepVal {
		out.Val = make([]int64, 0, int64(n)+m.RowPtr[n])
	}
	push := func(c int32, v int64) {
		out.Col = append(out.Col, c)
		if keepVal {
			out.Val = append(out.Val, v)
		}
	}
	for v := 0; v < n; v++ {
		cols, vals := m.Row(v)
		placed := false
		for i, c := range cols {
			if !placed && int(c) >= v {
				if int(c) == v {
					push(c, diag) // the diagonal of an iterated square is the one element
					placed = true
					continue
				}
				push(int32(v), diag)
				placed = true
			}
			if vals == nil {
				push(c, diag) // value-free entries are the one element too
			} else {
				push(c, vals[i])
			}
		}
		if !placed {
			push(int32(v), diag)
		}
		out.RowPtr[v+1] = int64(len(out.Col))
	}
	return out
}

// squaringIters is the iterated-squaring depth: distances and
// reachability stabilise after ⌈log₂ n⌉ squarings.
func squaringIters(n int) int {
	if n <= 1 {
		return 1
	}
	return bits.Len(uint(n - 1))
}

// csrEqual reports whether two iterates store the same entries; a nil and
// an empty array are the same array here.
func csrEqual(a, b *matrix.CSR[int64]) bool {
	return a.N == b.N && slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.Col, b.Col) && slices.Equal(a.Val, b.Val)
}

// iterateSquaring drives an iterated-squaring loop that stays CSR until
// fill-in forces densification: each squaring runs through spec's routed
// CSR product, and the first dense result switches the loop to its dense
// product for the remaining iterations. Either representation exits early
// at a fixed point.
func (r *opRun) iterateSquaring(spec *productSpec, d *matrix.CSR[int64], iters int) (ccmm.CSRProduct[int64], error) {
	var dd *ccmm.RowMat[int64]
	for i := 0; i < iters; i++ {
		if dd == nil {
			p, route, err := spec.mulCSR(r.plan, r.net, r.sc, d, d)
			r.route = route
			if err != nil {
				return ccmm.CSRProduct[int64]{}, err
			}
			if p.Sparse != nil {
				if csrEqual(p.Sparse, d) {
					break
				}
				d = p.Sparse
				continue
			}
			dd = p.Dense // fill-in densified the iterate; stay dense from here
			continue
		}
		next, route, err := spec.mul(r.plan, r.net, r.sc, dd, dd)
		r.route = route
		if err != nil {
			return ccmm.CSRProduct[int64]{}, err
		}
		if slices.EqualFunc(next.Rows, dd.Rows, slices.Equal[[]int64]) {
			r.recycle(next)
			break
		}
		r.recycle(dd)
		dd = next
	}
	if dd != nil {
		return ccmm.CSRProduct[int64]{Dense: dd}, nil
	}
	// The iterate may still be the caller's seeded view; products are
	// always fresh, so this aliases no pooled state.
	return ccmm.CSRProduct[int64]{Sparse: d}, nil
}

// iterateCSR is the shared harness of the iterated-squaring CSR entry
// points: seed the iterate with the operand plus diag on the diagonal —
// values kept (min-plus) or dropped, since a Boolean iterate is
// structure-only and successive iterates come back value-free — and square
// it to a fixed point with spec's products.
func (s *Clique) iterateCSR(op string, spec *productSpec, a *CSR, diag int64, keepVal bool, opts []CallOption) (prod CSRProduct, stats Stats, err error) {
	if err := a.validate(); err != nil {
		return CSRProduct{}, Stats{}, err
	}
	if spec.class == minPlusSize {
		if err := a.checkRange(weightLimit(a.N)); err != nil {
			return CSRProduct{}, Stats{}, err
		}
	}
	r, err := s.begin(op, a.N, spec.class, opts)
	if err != nil {
		return CSRProduct{}, Stats{}, err
	}
	defer r.end(&stats, &err)
	d := withDiagonal(padCSRTo(a, r.n), r.n, diag, keepVal)
	var p ccmm.CSRProduct[int64]
	if p, err = r.iterateSquaring(spec, d, squaringIters(a.N)); err == nil {
		prod = r.publicProduct(p)
	}
	return
}

// APSPCSR computes all-pairs shortest-path distances of a nonnegatively
// weighted digraph given as a CSR matrix (stored entries are edge
// weights; nil Val means all edges have weight 0), by min-plus iterated
// squaring that stays CSR across iterations until fill-in forces
// densification. Unstored result entries are +∞ — unreachable pairs cost
// nothing, so on graphs whose components are small the whole computation
// is sublinear in n². Distances only; use APSP for routing tables. As for
// APSP, a weight w with 2(n−1)·|w| ≥ Inf is refused with ErrOutOfRange.
func (s *Clique) APSPCSR(a *CSR, opts ...CallOption) (CSRProduct, Stats, error) {
	return s.iterateCSR("APSPCSR", &distanceProductSpec, a, 0, true, opts)
}

// TransitiveClosureCSR computes the reflexive-transitive closure of a CSR
// adjacency matrix (values ignored; stored entries are edges) by Boolean
// iterated squaring — the adjacency-powers pattern of the girth machinery
// — staying CSR across iterations until fill-in forces densification. A
// sparse result is value-free; a dense one is a 0/1 matrix.
func (s *Clique) TransitiveClosureCSR(a *CSR, opts ...CallOption) (CSRProduct, Stats, error) {
	return s.iterateCSR("TransitiveClosureCSR", &matMulBoolSpec, a, 1, false, opts)
}
