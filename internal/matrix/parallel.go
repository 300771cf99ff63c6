package matrix

import (
	"github.com/algebraic-clique/algclique/internal/ring"
)

// Workers abstracts a parallel task runner over which the local kernels fan
// out. *clique.Network satisfies it (RunLocal reuses the session's
// persistent worker pool, so WithWorkers governs local-kernel parallelism
// too), as does the standalone *clique.LocalPool.
//
// Determinism contract: implementations run f(0), …, f(tasks-1) exactly
// once each, in any order and on any goroutine, and return after all calls
// complete. The parallel kernels only ever split work into disjoint output
// regions, each computed by the same sequential code regardless of
// scheduling, so results are bit-identical to the sequential kernels for
// every worker count.
//
// A nil Workers (or one worker) degrades every parallel kernel to its
// sequential form.
type Workers interface {
	RunLocal(tasks int, f func(task int))
}

// parGrain is the minimum per-task row count of ParMulInto: below it,
// task-dispatch overhead beats the parallelism.
const parGrain = 16

// parTasks is the fan-out width of the parallel kernels. It intentionally
// over-partitions (any pool has ≤ GOMAXPROCS useful workers) so uneven
// task costs balance; the split depends only on the problem shape, never
// on the worker count, keeping the task boundaries — and with them the
// work each task does — deterministic.
const parTasks = 32

// ParMulInto is MulInto with the output rows fanned out over w: the rows of
// out are split into contiguous bands and each band is one MulInto call on
// a row-window view, so every band runs the same specialised kernel as the
// sequential path and the result is bit-identical for every worker count.
// A nil w, or a product too small to split, falls through to MulInto.
//
// Must not be called from inside a ForEach or RunLocal task — the fan-out
// in flight owns the pool and the nested call panics; parallel kernels
// belong to single-threaded (per-session, not per-node) contexts.
func ParMulInto[T any](w Workers, r ring.Semiring[T], out, a, b *Dense[T]) {
	tasks := a.rows / parGrain
	if tasks > parTasks {
		tasks = parTasks
	}
	if w == nil || tasks < 2 {
		MulInto(r, out, a, b)
		return
	}
	w.RunLocal(tasks, func(t int) {
		lo := t * a.rows / tasks
		hi := (t + 1) * a.rows / tasks
		MulInto(r, rowWindow(out, lo, hi), rowWindow(a, lo, hi), b)
	})
}

// ParMul is the allocating form of ParMulInto.
func ParMul[T any](w Workers, r ring.Semiring[T], a, b *Dense[T]) *Dense[T] {
	out := New[T](a.rows, b.cols)
	ParMulInto(w, r, out, a, b)
	return out
}

// rowWindow views rows [lo, hi) of m as a matrix sharing m's backing store.
func rowWindow[T any](m *Dense[T], lo, hi int) *Dense[T] {
	return &Dense[T]{rows: hi - lo, cols: m.cols, e: m.e[lo*m.cols : hi*m.cols]}
}

// ParStrassen is Strassen with the top of the recursion fanned out over w:
// the recursion tree is expanded breadth-first into independent sub-products
// (7, then 49 when the operands are large enough to keep every worker busy),
// each computed by the sequential strassenRec, and the combination steps run
// on the calling goroutine in a fixed order. The expansion depth depends
// only on the problem size, so the arithmetic — and with it the result — is
// bit-identical to Strassen for every worker count. A nil w runs the
// sequential algorithm. The ForEach/RunLocal nesting rule of ParMulInto
// applies.
func ParStrassen[T any](w Workers, r ring.Ring[T], a, b *Dense[T], cutoff int) *Dense[T] {
	if cutoff <= 0 {
		cutoff = DefaultStrassenCutoff
	}
	if w == nil {
		return Strassen(r, a, b, cutoff)
	}
	if a.rows != a.cols || b.rows != b.cols || a.rows != b.rows {
		panic("matrix: ParStrassen needs equal square operands")
	}
	n := a.rows
	if n == 0 {
		return New[T](0, 0)
	}
	p := 1
	for p < n {
		p *= 2
	}
	if p != n {
		a = padTo(r, a, p)
		b = padTo(r, b, p)
	}
	prod := strassenPar(w, r, a, b, cutoff)
	if p != n {
		prod = prod.Sub(0, n, 0, n)
	}
	return prod
}

// strassenPar expands up to two levels of the recursion into a flat task
// list, runs the leaves over the pool, and recombines sequentially.
func strassenPar[T any](w Workers, r ring.Ring[T], a, b *Dense[T], cutoff int) *Dense[T] {
	n := a.rows
	if n <= cutoff || n%2 != 0 {
		return Mul[T](r, a, b)
	}
	pairs := strassenSplit(r, a, b)
	h := n / 2
	var m [7]*Dense[T]
	if h <= cutoff || h%2 != 0 || h/2 <= cutoff {
		// One level: 7 leaf products.
		w.RunLocal(7, func(t int) {
			m[t] = strassenRec(r, pairs[t][0], pairs[t][1], cutoff)
		})
		return strassenCombine(r, m, n)
	}
	// Two levels: 49 leaf products, each group of 7 recombined into one m.
	var sub [7][7][2]*Dense[T]
	for i := range pairs {
		sub[i] = strassenSplit(r, pairs[i][0], pairs[i][1])
	}
	var leaves [7][7]*Dense[T]
	w.RunLocal(49, func(t int) {
		i, j := t/7, t%7
		leaves[i][j] = strassenRec(r, sub[i][j][0], sub[i][j][1], cutoff)
	})
	for i := range m {
		m[i] = strassenCombine(r, leaves[i], h)
	}
	return strassenCombine(r, m, n)
}
