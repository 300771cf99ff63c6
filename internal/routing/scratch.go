package routing

import "github.com/algebraic-clique/algclique/internal/clique"

// Scratch holds the routing layer's reusable delivery state. Exchange
// returns a receive matrix in[dst][src]; with a Scratch those matrices are
// double-buffered — the one handed out two Exchange calls ago is recycled,
// mirroring the simulator's Mail contract — so a pipeline of exchanges
// allocates nothing in steady state. Its entries alias the senders'
// vectors; the Scratch owns only the matrix.
//
// A Scratch belongs to one caller; the engines' port keeps one for its
// TwoPhaseCosts working set. Exchange with a nil Scratch allocates per
// call.
type Scratch struct {
	ins   [2][][][]clique.Word
	insAt int
	lens  []int64
	links []Link
	tp    twoPhaseWork
	plans []exchangePlan
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

// receive rotates the double-buffered n×n receive matrix.
func (sc *Scratch) receive(n int) [][][]clique.Word {
	m := sc.ins[sc.insAt]
	if len(m) != n {
		m = newMatrix(n)
		sc.ins[sc.insAt] = m
	}
	sc.insAt ^= 1
	return m
}

// newMatrix returns an n×n receive matrix of nil vectors.
func newMatrix(n int) [][][]clique.Word {
	m := make([][][]clique.Word, n)
	for i := range m {
		m[i] = make([][]clique.Word, n)
	}
	return m
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
