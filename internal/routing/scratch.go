package routing

import "github.com/algebraic-clique/algclique/internal/clique"

// Scratch holds the routing layer's reusable delivery state. Exchange
// returns a receive matrix in[dst][src]; with a Scratch those matrices are
// double-buffered — the one handed out two Exchange calls ago is recycled,
// mirroring the simulator's Mail contract — so a pipeline of exchanges
// allocates nothing in steady state.
//
// Direct and two-phase deliveries recycle separately: direct receive
// entries are borrowed mailbox windows (reassigned, never written), while
// two-phase entries are scratch-owned arrays reassembled in place. Keeping
// the pools apart means an owned buffer can never alias a network mailbox.
//
// A Scratch belongs to one caller; the engines thread one through all
// their exchanges. Exchange with a nil Scratch allocates per call.
type Scratch struct {
	directIns [2][][][]clique.Word
	directIdx int
	ownedIns  [2][][][]clique.Word
	ownedIdx  int
	heldMeta  [][]routedMeta
	heldWord  [][]clique.Word
	lens      []int64
	links     []Link
	tp        twoPhaseWork
	plans     []exchangePlan
}

// exchangePlan memoises the charged aggregates of one traffic shape: the
// engines' exchange patterns are oblivious — fixed by (n, layout, chunk
// sizes) — so a session replays the same handful of lens arrays every
// product, and the two-phase striping arithmetic needs to run once per
// shape rather than once per exchange.
type exchangePlan struct {
	lens []int64
	c    Costs
}

// maxExchangePlans bounds the memo (an engine uses ≤ 4 shapes; a few
// engines can share a scratch across padded sizes).
const maxExchangePlans = 16

// NewScratch returns an empty routing scratch.
func NewScratch() *Scratch { return &Scratch{} }

// heldRetainCap is the high-water capacity (entries) a per-intermediary
// forwarding buffer or reassembly vector may keep between exchanges; a
// one-off traffic spike above it is released rather than pinned.
const heldRetainCap = 1 << 14

// nextMatrix rotates a double-buffered n×n receive matrix.
func nextMatrix(bufs *[2][][][]clique.Word, idx *int, n int) [][][]clique.Word {
	m := bufs[*idx]
	if len(m) != n {
		m = make([][][]clique.Word, n)
		for i := range m {
			m[i] = make([][]clique.Word, n)
		}
		bufs[*idx] = m
	}
	*idx ^= 1
	return m
}

// directIn returns the next direct receive matrix; entries are stale
// borrowed windows about to be overwritten or nil-cleared by the caller.
func (sc *Scratch) directIn(n int) [][][]clique.Word {
	return nextMatrix(&sc.directIns, &sc.directIdx, n)
}

// ownedIn returns the next owned receive matrix; entries keep their
// capacity and are resized in place by the caller.
func (sc *Scratch) ownedIn(n int) [][][]clique.Word {
	return nextMatrix(&sc.ownedIns, &sc.ownedIdx, n)
}

// held returns the per-intermediary forwarding tables, truncated.
func (sc *Scratch) held(n int) ([][]routedMeta, [][]clique.Word) {
	for len(sc.heldMeta) < n {
		sc.heldMeta = append(sc.heldMeta, nil)
	}
	for len(sc.heldWord) < n {
		sc.heldWord = append(sc.heldWord, nil)
	}
	hm, hw := sc.heldMeta[:n], sc.heldWord[:n]
	for i := range hm {
		if cap(hm[i]) > heldRetainCap {
			hm[i] = nil
		} else {
			hm[i] = hm[i][:0]
		}
		if cap(hw[i]) > heldRetainCap {
			hw[i] = nil
		} else {
			hw[i] = hw[i][:0]
		}
	}
	return hm, hw
}

// payLens returns a zeroed length-k tally: the materialised analytic lens
// of a message-matrix exchange.
func (sc *Scratch) payLens(k int) []int64 {
	sc.lens = zeroedLoads(sc.lens, k)
	return sc.lens[:k]
}

func zeroedLoads(b []int64, k int) []int64 {
	if cap(b) < k {
		return make([]int64, k)
	}
	b = b[:k]
	for i := range b {
		b[i] = 0
	}
	return b
}

// resize returns b with length k, reusing its capacity.
func resize[T any](b []T, k int) []T {
	if cap(b) < k {
		return make([]T, k)
	}
	return b[:k]
}
