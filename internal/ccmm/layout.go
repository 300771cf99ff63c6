package ccmm

import (
	"fmt"
	"slices"
)

// cubeLayout realises the §2.1 index scheme on an arbitrary n-node clique
// on the largest balanced cube that fits. The cube side is
// c = min(⌊n^{1/3}⌋, ⌈n/⌈n^{1/3}⌉²⌉): the first term keeps c³ ≤ n, so every
// subcube has a real node of its own, and the second never exceeds the
// number of index groups the next cube up would fill, so no entry is
// replicated more often than there. The indices [0, n) split into c
// contiguous groups [lo(x), lo(x+1)) with lo(x) = ⌊x·n/c⌋, each ⌊n/c⌋ or
// ⌈n/c⌉ = b wide; block rows are padded with the semiring zero up to b
// entries. Subcube (u1, u2, u3) lives on real node lo(u1) + u2·c + u3,
// inside its own row group (every group holds at least ⌊n/c⌋ ≥ c² indices).
// On a perfect cube the layout is the paper's: groups of c² and node
// v = (v1, v2, v3) in base c owning subcube (v1, v2, v3).
type cubeLayout struct {
	c int // cube side
	n int // clique size
	b int // ⌈n/c⌉, the widest group and the padded block side
}

// newCubeLayout returns the balanced layout for clique size n ≥ 1.
func newCubeLayout(n int) cubeLayout {
	if n < 1 {
		panic(fmt.Sprintf("ccmm: clique size %d < 1", n))
	}
	up := CbrtCeil(n)
	down := up
	if down*down*down > n {
		down--
	}
	c := min(down, (n+up*up-1)/(up*up))
	return cubeLayout{c: c, n: n, b: (n + c - 1) / c}
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

// lo returns the first index of group x; lo(c) = n.
func (l cubeLayout) lo(x int) int { return x * l.n / l.c }

// group returns the group holding index v: the largest x with lo(x) ≤ v.
func (l cubeLayout) group(v int) int { return ((v+1)*l.c - 1) / l.n }

// host returns the real node that owns subcube (u1, u2, u3).
func (l cubeLayout) host(u1, u2, u3 int) int { return l.lo(u1) + u2*l.c + u3 }

// subcube returns the subcube real node r owns, if it owns one: the
// inverse of host.
func (l cubeLayout) subcube(r int) (u1, u2, u3 int, ok bool) {
	u1 = l.group(r)
	off := r - l.lo(u1)
	if off >= l.c*l.c {
		return 0, 0, 0, false
	}
	return u1, off / l.c, off % l.c, true
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
