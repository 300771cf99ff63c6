package ccmm

import (
	"fmt"
	"slices"
)

// cubeLayout realises the §2.1 index scheme on an arbitrary n-node clique
// by padding to the next cube: with c = ⌈n^{1/3}⌉ the layout addresses
// vn = c³ ≥ n virtual nodes, each the base-c three-digit tuple (v1, v2, v3),
// and real node v mod n simulates virtual node v (≤ ⌈c³/n⌉ ≤ 8 virtual
// nodes per real node, so the asymptotic round bound is unchanged). On a
// perfect cube the layout is the paper's: vn = n and every node simulates
// exactly itself.
type cubeLayout struct {
	c  int // ⌈n^{1/3}⌉, the cube side
	n  int // real clique size
	vn int // c³ virtual nodes
}

// newCubeLayout returns the (possibly padded) layout for clique size n ≥ 1.
func newCubeLayout(n int) cubeLayout {
	if n < 1 {
		panic(fmt.Sprintf("ccmm: clique size %d < 1", n))
	}
	c := CbrtCeil(n)
	return cubeLayout{c: c, n: n, vn: c * c * c}
}

// CbrtCeil returns ⌈n^{1/3}⌉ for n ≥ 1 — the side of the smallest cube
// holding n. It is the one cube-root helper shared by the cube layout, the
// combinatorial baselines, and the public padding logic.
func CbrtCeil(n int) int {
	c := 1
	for c*c*c < n {
		c++
	}
	return c
}

// real returns the real node simulating virtual node v. Virtual nodes
// v < n are simulated by themselves, so matrix rows never move: row v of
// the input lives at real node v, which is exactly virtual node v's host.
func (l cubeLayout) real(v int) int { return v % l.n }

// before counts the virtual nodes below v hosted on v's real node for which
// f holds: the position of v's traffic among that node's, when real links
// carry the hosted nodes' messages in increasing virtual order.
func (l cubeLayout) before(v int, f func(w int) bool) int {
	k := 0
	for w := l.real(v); w < v; w += l.n {
		if f(w) {
			k++
		}
	}
	return k
}

// liveDigits returns the number of digit values d whose group d∗∗ contains
// a real matrix index (< n). All three digits of a subcube owner (u1, u2,
// u3) select first-digit groups of matrix indices — output rows, middle
// indices, and output columns respectively — so a subcube carries real
// data only when every digit is below this bound: a dead u1 means all its
// output rows are padding, a dead u2 means the S columns/T rows are all
// zero (the block product is the zero matrix), and a dead u3 means every
// output column is discarded. Dead subcubes are neither fed nor computed.
func (l cubeLayout) liveDigits() int {
	c2 := l.c * l.c
	return (l.n + c2 - 1) / c2
}

func (l cubeLayout) split(v int) (v1, v2, v3 int) {
	return v / (l.c * l.c), (v / l.c) % l.c, v % l.c
}

func (l cubeLayout) join(v1, v2, v3 int) int {
	return v1*l.c*l.c + v2*l.c + v3
}

// firstDigitSet returns x∗∗ = {v : v1 = x}, in increasing node order.
func (l cubeLayout) firstDigitSet(x int) []int {
	out := make([]int, 0, l.c*l.c)
	for v2 := 0; v2 < l.c; v2++ {
		for v3 := 0; v3 < l.c; v3++ {
			out = append(out, l.join(x, v2, v3))
		}
	}
	return out
}

// gridLayout realises the §2.2 two-level index scheme on an n = q² clique
// with block dimension d | q: node v is the mixed-radix tuple (v1, v2, v3)
// with v1 ∈ [d], v2 ∈ [q], v3 ∈ [q/d], and carries the secondary label
// ℓ(v) = (x1, x2) ∈ [q]² with v = x1·q + x2.
type gridLayout struct {
	q  int // √n
	d  int // scheme block dimension
	qd int // q / d
}

func newGridLayout(n, d int) (gridLayout, error) {
	q := isqrt(n)
	if q*q != n {
		return gridLayout{}, fmt.Errorf("ccmm: clique size %d is not a perfect square: %w", n, ErrSize)
	}
	if d < 1 || q%d != 0 {
		return gridLayout{}, fmt.Errorf("ccmm: block dimension %d does not divide √n = %d: %w", d, q, ErrSize)
	}
	return gridLayout{q: q, d: d, qd: q / d}, nil
}

func isqrt(n int) int {
	if n <= 0 {
		return 0
	}
	q := 0
	for (q+1)*(q+1) <= n {
		q++
	}
	return q
}

func (l gridLayout) split(v int) (v1, v2, v3 int) {
	return v / (l.q * l.qd), (v / l.qd) % l.q, v % l.qd
}

func (l gridLayout) join(v1, v2, v3 int) int {
	return v1*l.q*l.qd + v2*l.qd + v3
}

// label returns ℓ(v) = (x1, x2).
func (l gridLayout) label(v int) (x1, x2 int) {
	return v / l.q, v % l.q
}

// nodeAt returns the node with label (x1, x2).
func (l gridLayout) nodeAt(x1, x2 int) int {
	return x1*l.q + x2
}

// groupSet returns ∗x∗ = {v : v2 = x} ordered by (v1, v3); this ordering is
// the block-row order used for the assembled q×q submatrices: index
// i·(q/d) + u3 inside a block corresponds to global index join(i, x, u3).
func (l gridLayout) groupSet(x int) []int {
	out := make([]int, 0, l.q)
	for v1 := 0; v1 < l.d; v1++ {
		for v3 := 0; v3 < l.qd; v3++ {
			out = append(out, l.join(v1, x, v3))
		}
	}
	return out
}

// posInGroup returns the position of v within groupSet(v2): v1·(q/d) + v3.
func (l gridLayout) posInGroup(v int) int {
	v1, _, v3 := l.split(v)
	return v1*l.qd + v3
}

// appendCols appends row[cols[i]] for every in-range column, and the
// semiring zero for padding columns (index ≥ n), onto a typed message
// buffer: the gather step in front of every exchange. The message travels
// as-is on the direct transport and through one bulk encode per chunk on
// the wire, with no per-element codec dispatch anywhere on the path.
func appendCols[T any](dst []T, row []T, cols []int, n int, zero T) []T {
	dst = slices.Grow(dst, len(cols)) // a cold buffer grows once, not element by element
	for _, col := range cols {
		if col < n {
			dst = append(dst, row[col])
		} else {
			dst = append(dst, zero)
		}
	}
	return dst
}
