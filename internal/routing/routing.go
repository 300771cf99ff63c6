// Package routing provides the communication primitives the paper's
// algorithms assume on top of raw links:
//
//   - Exchange: personalised all-to-all delivery of arbitrary per-pair word
//     vectors, with a deterministic two-phase balanced schedule in the style
//     of Lenzen's routing theorem [46] (any pattern in which every node
//     sends and receives at most h words is delivered in ceil(h/n) + O(1)
//     rounds), falling back to direct per-link delivery when that is cheaper.
//     Exchange and its typed form ExchangePayload are one body: both
//     schedules are charged in closed form from per-link word lengths
//     (TwoPhaseCosts) and the vectors move by reference.
//   - ObliviousCosts: the two-phase schedule of an exchange whose every
//     length is common knowledge (the dense engines'), on a König
//     edge-colouring every node computes alike, which holds both phases at
//     their floors ⌈out/n⌉ and ⌈in/n⌉ where the stripe lets phase B stack.
//   - AllGather: the "learn everything" primitive of Dolev et al. [24]:
//     all nodes learn the union of all nodes' local words in
//     ~2*ceil(K/n) rounds for K total words, once every node knows every
//     vector's length. It is the one relay that still puts real words on
//     the links, so a fault plan can hit them.
//
// Addressing metadata travels out-of-band in the simulator: the algorithms
// in the paper use *oblivious* routing (the pattern is computable by every
// node from globally known parameters), so headers are not needed on the
// wire; for the dynamic patterns the per-node counts are explicitly
// broadcast first, which is the information needed to make the schedule
// globally computable. Payload words are what is charged.
package routing

import (
	"fmt"

	"github.com/algebraic-clique/algclique/internal/clique"
)

// Strategy selects how Exchange schedules traffic.
type Strategy int

const (
	// Auto picks the cheaper of Direct and TwoPhase for the given traffic.
	Auto Strategy = iota
	// Direct drains each (src, dst) queue on its own link.
	Direct
	// TwoPhase stripes each sender's traffic across all n nodes as
	// intermediaries, then forwards to final destinations.
	TwoPhase
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case Direct:
		return "direct"
	case TwoPhase:
		return "two-phase"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Exchange delivers msgs[src][dst] (a vector of words for every ordered
// pair; empty entries mean no traffic) and returns in[dst][src] with FIFO
// order preserved per pair. msgs must be n×n. The vectors travel by
// reference: in[dst][src] aliases msgs[src][dst], and a fault plan's
// perturbations land in it.
func Exchange(net *clique.Network, strategy Strategy, msgs [][][]clique.Word) [][][]clique.Word {
	return ExchangeScratch(net, strategy, nil, msgs)
}

// ExchangeScratch is Exchange drawing its receive matrix and its
// schedule's working set from sc (see Scratch). It is ExchangePayload with
// one charged word per word, so both schedules are charged analytically
// and the vectors move by reference. The returned matrix is recycled two
// ExchangeScratch calls later, so callers must consume one exchange's
// delivery before requesting a third — the same lifetime the simulator's
// Mail gives. Entries for pairs that carried no traffic may be stale under
// a Scratch: scratch users are oblivious protocols that read exactly the
// pairs they addressed. A nil sc allocates per call, with nil entries for
// idle pairs.
//
//cc:hotpath
func ExchangeScratch(net *clique.Network, strategy Strategy, sc *Scratch, msgs [][][]clique.Word) [][][]clique.Word {
	n := net.N()
	validateShape(n, msgs)
	var in [][][]clique.Word
	if sc != nil {
		in = sc.receive(n)
	} else {
		in = newMatrix(n) //cc:hotalloc-ok(nil-scratch transient fallback, documented on ExchangeScratch)
	}
	return ExchangePayload(net, strategy, sc, msgs, wordLen, in)
}

// wordLen charges a word vector one word per word.
func wordLen(k int) int64 { return int64(k) }

// validateShape panics unless msgs is an n×n message matrix.
func validateShape(n int, msgs [][][]clique.Word) {
	if len(msgs) != n {
		panic(fmt.Sprintf("routing: Exchange wants %d source rows, got %d", n, len(msgs)))
	}
	for src := range msgs {
		if len(msgs[src]) != n {
			panic(fmt.Sprintf("routing: source %d has %d destination slots, want %d", src, len(msgs[src]), n))
		}
	}
}

// stripeOffset rotates each sender's intermediary cycle by a golden-ratio
// multiple of its id. A plain (src + i) mod n assignment aligns the stripes
// of consecutive senders, piling their phase-B forwards for a common
// destination onto the same intermediaries (the matmul assemble step is
// exactly that pattern); the rotation spreads consecutive senders ~0.618·n
// apart and keeps the schedule deterministic.
func stripeOffset(src, n int) int {
	if n <= 1 {
		return 0
	}
	p := int(float64(n)*0.6180339887) | 1
	return src * p % n
}

// AllGather makes every node learn every node's local word vector. The
// returned slice is indexed by origin node and must be treated as read-only
// (it is shared by all receivers, which is sound because all nodes hold
// identical copies after the gather).
//
// Every node must already know every vector's length: the spread's holder
// assignment follows from them. AllGather sends no lengths; a caller whose
// lengths do not follow from n pays a count round for them first.
//
// Cost: ~ceil(K/n) rounds to spread the K total words evenly, and
// ceil(K/n) broadcast rounds to publish them; nothing when K = 0.
func AllGather(net *clique.Network, vecs [][]clique.Word) [][]clique.Word {
	n := net.N()
	if len(vecs) != n {
		panic(fmt.Sprintf("routing: AllGather wants %d vectors, got %d", n, len(vecs)))
	}
	var total int64
	for _, vec := range vecs {
		total += int64(len(vec))
	}
	if total == 0 {
		out := make([][]clique.Word, n)
		copy(out, vecs)
		return out
	}
	chunk := (total + int64(n) - 1) / int64(n)

	// Spread: word at global position p goes to holder p/chunk. Each node
	// computes the same assignment from the known lengths.
	holderOf := func(p int64) int { return int(p / chunk) }
	held := make([][]clique.Word, n)
	var pos int64
	for v, vec := range vecs {
		for _, w := range vec {
			h := holderOf(pos)
			net.Send(v, h, w)
			held[h] = append(held[h], w)
			pos++
		}
	}
	net.Flush()

	// Publish: each holder broadcasts its ≤ chunk words.
	net.Broadcast(held)

	out := make([][]clique.Word, n)
	copy(out, vecs)
	return out
}
