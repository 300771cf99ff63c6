package ccmm

import (
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/routing"
)

// Scratch holds the reusable working state of the distributed
// multiplication engines: the exchange port's per-node message queues and,
// for the wire transport, its word and receive arenas; per-node message
// arenas, local block operands and products; and the free list of n×n row
// matrices.
//
// A Scratch belongs to the network it serves. ScratchOf(net) is that
// network's one working set, built on the first product and kept in the
// network's engine-state slot until Network.Trim or Close lets it go; every
// engine entry point reads a nil *Scratch argument as "this network's". So
// a session — one network per clique size — has exactly one working set per
// size, and everything that multiplies on the network shares it: the
// session's own products, iterated squaring, and every product inside the
// reductions of internal/distance, internal/subgraph and internal/girth
// (Seidel's recursion, the trace formulas, colour-coding's 3^k products,
// girth doubling), which is what makes a warm graph operation allocate its
// answer and little else. NewScratch builds a working set of the caller's
// own — a bench rig, a test — for which the same rules hold.
//
// Ownership rules (see DESIGN.md "Scratch pools"):
//
//   - A Scratch belongs to at most one in-flight product; sessions
//     guarantee this by serialising operations. Within a product, per-node
//     entries are touched only by that node's ForEach worker.
//   - A Scratch outlives aborted products (a round limit, a cancelled
//     context, an injected crash unwinding an engine mid-exchange). Nothing
//     in it is trusted across products: every slot is overwritten before it
//     is read, and each product's port opens by truncating the queues and
//     arenas the last one may have left filled.
//   - Message arenas are per node and only ever appended into; a message is
//     a window of its sender's arena (or a row of other scratch state, such
//     as a product block) and stays untouched until its receiver has read
//     it, so an engine refills an arena only in a phase after the one that
//     read its messages.
//   - Row matrices come from one free list per element type (GetMat /
//     PutMat). Engines draw their results from it, with stale contents they
//     overwrite entirely; whoever holds a result — a reduction, the session
//     — may return it with PutMat once nothing reads it any more, and must
//     not touch it afterwards. Engines never return an operand or a result
//     on their own, and the matrix a reduction hands back to its caller is
//     never on the list, so nothing a caller retains aliases scratch state.
type Scratch struct {
	links []routing.Link   // one flush's per-link word lengths
	rt    *routing.Scratch // delivery-layer pools
	typed []any            // one *typedScratch[T] per element type
	sp    *sparseState     // sparse-engine census/tile tables

	recycled func(m any) // test seam: sees every matrix PutMat accepts (SetRecycleHook)
}

// sparseState pools the element-type-independent working set of the sparse
// engine: census words, per-node nonzero counts, tile sides and placements,
// and the CSR-shaped reverse indices mapping grid nodes to the tiles whose
// row (A) or column (B) range contains them. One product fully overwrites
// every field it reads.
type sparseState struct {
	nnz    []clique.Word // census broadcast buffer
	ca, rb []int         // per-middle-index nonzero counts (S columns, T rows)
	fs     []int         // tile sides
	tiles  []Tile
	rowOff []int32 // CSR offsets: tiles with node p in their row range
	rowYs  []int32
	colOff []int32 // CSR offsets: tiles with node p in their column range
	colYs  []int32
}

// NewScratch returns an empty working set owned by the caller. Code that
// multiplies on a network it did not build wants ScratchOf instead.
func NewScratch() *Scratch {
	return &Scratch{rt: routing.NewScratch()}
}

// ScratchOf returns the working set that belongs to net, building it on
// first use (single-threaded, like everything that arms a network).
func ScratchOf(net *clique.Network) *Scratch {
	if sc, ok := net.EngineState().(*Scratch); ok {
		return sc
	}
	sc := NewScratch()
	net.SetEngineState(sc)
	return sc
}

// orOf resolves an entry point's scratch argument: nil means net's own.
func (sc *Scratch) orOf(net *clique.Network) *Scratch {
	if sc != nil {
		return sc
	}
	return ScratchOf(net)
}

// SetRecycleHook installs f to be called with every *RowMat[T] handed to
// PutMat, after which the matrix is the list's to hand out again. It
// exists for tests, which overwrite the matrix there so that a reader of a
// recycled matrix fails at once instead of when the slot is reused.
func (sc *Scratch) SetRecycleHook(f func(m any)) { sc.recycled = f }

// typedScratch is the element-typed arm of a Scratch: per-node buffers and
// block matrices for one T. Slices indexed by node are pre-sized on the
// engine's single-threaded path (growSlots/growBufs) so that ForEach
// workers only ever touch their own entries.
//
// A typedScratch carries no algebra state — int64 serves the integer
// ring, the Boolean semiring and min-plus alike — so everything in it is
// either fully overwritten per use or explicitly refilled (zero rows).
type typedScratch[T any] struct {
	bufs    []([]T) // per-node buffers (dense engines' message arenas; tile engine's A-side lists, then gather arenas; tuple formats' value staging)
	bufs2   []([]T) // second per-node buffer (tile engine's B-side lists, then received rows; transpose value staging)
	bufs3   []([]T) // third per-node buffer (tile engine's spread arenas)
	zeroRow []T     // one semiring-zero row, refilled per product

	// 3D engine state.
	cubeS, cubeT []*matrix.Dense[T] // per hosting node: received b×b operand blocks
	cubeProd     []*matrix.Dense[T] // per hosting node: product subcube

	// Fast bilinear engine state.
	gridS, gridT []*matrix.Dense[T]  // per node: assembled q×q operand grids
	hatS, hatT   [][]matrix.Dense[T] // per node, per multiplication: (q/d)² pieces, windows of one arena per node
	fullA, fullB []*matrix.Dense[T]  // per node w: assembled (n/d)×(n/d) operands
	fullP        []*matrix.Dense[T]  // per node w: block product
	acc, piece   []*matrix.Dense[T]  // per node: output accumulator and decode piece

	// Port queues: per sending node, the messages of the port's next flush
	// and, on the wire transport, their encodings — windows of the node's
	// word arena, one per message — on one of two sides that alternate per
	// flush (see port.flush).
	outbox [2][][]outMsg[T]
	words  [2][][]clique.Word
	wins   [2][][][]clique.Word
	side   int

	// Wire-port receive arenas: per node, what the port decodes arrivals
	// into; append-only within a product, so every window handed out stays
	// valid, and truncated when the next product opens its port.
	recv []([]T)

	// Tile engine state: per-node tables of borrowed windows into received
	// spread chunks. Window entries are reassigned every product, never
	// appended into; the tables themselves keep their capacity.
	slots  []([][]T) // per-node A-part windows, one per tile the node forwards for
	slots2 []([][]T) // per-node B-part windows, one per tile the node gathers for

	// Free row matrices: engine results, algebra conversions (witness
	// untagging), padded operands, and the reductions' intermediates all
	// come from here and return here once dead.
	mats []*RowMat[T]
}

// typedFrom returns the scratch's typedScratch for T, creating it on first
// use. A scratch sees a handful of element types over its life, so a
// linear scan beats a map.
func typedFrom[T any](sc *Scratch) *typedScratch[T] {
	for _, e := range sc.typed {
		if ts, ok := e.(*typedScratch[T]); ok {
			return ts
		}
	}
	ts := &typedScratch[T]{}
	sc.typed = append(sc.typed, ts)
	return ts
}

// growBufs pre-sizes a per-node buffer slice to k nodes (single-threaded).
func growBufs[T any](s *[]([]T), k int) {
	for len(*s) < k {
		*s = append(*s, nil)
	}
}

// truncBufs pre-sizes a per-node buffer slice to k nodes and empties every
// buffer, keeping its capacity (single-threaded).
func truncBufs[T any](s *[]([]T), k int) {
	growBufs(s, k)
	for v, b := range *s {
		(*s)[v] = b[:0]
	}
}

// nodeBuf returns node v's buffer with length ≥ k, growing it in place.
// Safe from v's ForEach worker once the slice is pre-sized.
func nodeBuf[T any](s []([]T), v, k int) []T {
	b := s[v]
	if cap(b) < k {
		b = make([]T, k)
		s[v] = b
	}
	return b[:k]
}

// nodeSlots returns node v's window table with exactly k nil entries,
// growing it in place; the table is stored back at length k so later
// single-threaded walks over s[v] see exactly the entries of this use.
// Safe from v's ForEach worker once the outer slice is pre-sized.
func nodeSlots[T any](s []([][]T), v, k int) [][]T {
	t := s[v]
	if cap(t) < k {
		t = make([][]T, k)
	}
	t = t[:k]
	for i := range t {
		t[i] = nil
	}
	s[v] = t
	return t
}

// growSlots pre-sizes a matrix-slot slice to k entries (single-threaded).
func growSlots[T any](s *[]*matrix.Dense[T], k int) {
	for len(*s) < k {
		*s = append(*s, nil)
	}
}

// slotAt returns the rows×cols matrix in slot idx, (re)allocating when the
// slot is empty or the wrong shape. Contents are stale; callers overwrite.
// Safe from the owning ForEach worker once the slice is pre-sized.
func slotAt[T any](s []*matrix.Dense[T], idx, rows, cols int) *matrix.Dense[T] {
	d := s[idx]
	if d == nil || d.Rows() != rows || d.Cols() != cols {
		d = matrix.New[T](rows, cols)
		s[idx] = d
	}
	return d
}

// growHat pre-sizes the per-node table of piece arenas (single-threaded).
func growHat[T any](s *[][]matrix.Dense[T], nodes int) {
	for len(*s) < nodes {
		*s = append(*s, nil)
	}
}

// hatAt returns node v's m pieces of k×k each, (re)allocating them — one
// arena cut into m windows, so a node's pieces are two heap objects rather
// than 2m — when the slot is empty or the wrong shape. Contents are stale;
// callers overwrite. Safe from v's ForEach worker once the table is
// pre-sized.
func hatAt[T any](s [][]matrix.Dense[T], v, m, k int) []matrix.Dense[T] {
	h := s[v]
	if len(h) != m || h[0].Rows() != k || h[0].Cols() != k {
		h = matrix.NewWindows[T](m, k, k)
		s[v] = h
	}
	return h
}

// zeroRowFor refills and returns the shared semiring-zero row of length k
// (single-threaded; ForEach workers treat it as read-only).
func (ts *typedScratch[T]) zeroRowFor(zero T, k int) []T {
	if cap(ts.zeroRow) < k {
		ts.zeroRow = make([]T, k)
	}
	ts.zeroRow = ts.zeroRow[:k]
	for i := range ts.zeroRow {
		ts.zeroRow[i] = zero
	}
	return ts.zeroRow
}

// maxFreeMats bounds a free list, so that it cannot grow with the number of
// operations: a matrix returned to a full list goes to the collector.
// Iterated squaring and Seidel's recursion have a handful of dead matrices
// at a time; colour-coding returns every C(X) and C(Y)·A of a colouring
// together and fills the list from k = 4 up.
const maxFreeMats = 16

// GetMat takes an n×n row matrix off sc's free list for T, or allocates one
// when the list has none of that size. Contents are stale: the caller
// overwrites every entry it will read.
func GetMat[T any](sc *Scratch, n int) *RowMat[T] {
	ts := typedFrom[T](sc)
	for k := len(ts.mats) - 1; k >= 0; k-- {
		if m := ts.mats[k]; m.N() == n {
			ts.mats = append(ts.mats[:k], ts.mats[k+1:]...)
			return m
		}
	}
	return NewRowMat[T](n)
}

// AdjacencyRows distributes g's 0/1 adjacency matrix one row per node —
// node v's local input, as the model prescribes — with 1 on the diagonal
// when reflexive (A ∨ I). The matrix comes from sc's free list and goes
// back there when the caller is done with it.
func AdjacencyRows(sc *Scratch, g *graphs.Graph, reflexive bool) *RowMat[int64] {
	out := GetMat[int64](sc, g.N())
	for v, row := range out.Rows {
		clear(row)
		g.Row(v).ForEach(func(u int) { row[u] = 1 })
		if reflexive {
			row[v] = 1
		}
	}
	return out
}

// PutMat returns a matrix nothing reads any more to sc's free list for T;
// the caller must not touch it afterwards. A nil m is ignored, so error
// paths can hand back whatever they hold.
func PutMat[T any](sc *Scratch, m *RowMat[T]) {
	if m == nil {
		return
	}
	if sc.recycled != nil {
		sc.recycled(m)
	}
	ts := typedFrom[T](sc)
	for _, f := range ts.mats {
		if f == m {
			panic("ccmm: row matrix returned to the free list twice")
		}
	}
	if len(ts.mats) < maxFreeMats {
		ts.mats = append(ts.mats, m)
	}
}
