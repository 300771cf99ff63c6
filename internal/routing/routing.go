// Package routing provides the communication primitives the paper's
// algorithms assume on top of raw links:
//
//   - Exchange: personalised all-to-all delivery of arbitrary per-pair word
//     vectors, with a deterministic two-phase balanced schedule in the style
//     of Lenzen's routing theorem [46] (any pattern in which every node
//     sends and receives at most h words is delivered in ceil(h/n) + O(1)
//     rounds), falling back to direct per-link delivery when that is cheaper.
//   - AllGather: the "learn everything" primitive of Dolev et al. [24]:
//     all nodes learn the union of all nodes' local words in
//     ~2*ceil(K/n) + 1 rounds for K total words.
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
// order preserved per pair. msgs must be n×n.
func Exchange(net *clique.Network, strategy Strategy, msgs [][][]clique.Word) [][][]clique.Word {
	return ExchangeScratch(net, strategy, nil, msgs)
}

// ExchangeOwned is Exchange for callers that relinquish msgs: the network
// may adopt the payload vectors as queue storage (clique.SendOwnedVec), so
// the direct strategy enqueues without copying. Neither msgs' structure
// nor its vectors may be read or written after the call. Callers that pool
// their message buffers must use Exchange/ExchangeScratch instead.
func ExchangeOwned(net *clique.Network, strategy Strategy, msgs [][][]clique.Word) [][][]clique.Word {
	n := net.N()
	validateShape(n, msgs)
	if strategy == TwoPhase || strategy == Auto && autoTwoPhase(n, nil, msgs) {
		// Ownership is irrelevant two-phase: words travel individually.
		return exchangeTwoPhase(net, nil, msgs)
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if len(msgs[src][dst]) > 0 {
				net.SendOwnedVec(src, dst, msgs[src][dst])
			}
		}
	}
	mail := net.Flush()
	in := make([][][]clique.Word, n)
	for dst := 0; dst < n; dst++ {
		in[dst] = make([][]clique.Word, n)
		for src := 0; src < n; src++ {
			in[dst][src] = mail.From(dst, src)
		}
	}
	return in
}

// ExchangeScratch is Exchange drawing its receive matrices, per-pair
// reassembly buffers, and forwarding tables from sc (see Scratch). The
// returned matrix is recycled two ExchangeScratch calls later, so callers
// must consume one exchange's delivery before requesting a third — the
// same lifetime the simulator's Mail gives. Entries for pairs that carried
// no traffic may be stale under a Scratch: scratch users are oblivious
// protocols that read exactly the pairs they addressed. A nil sc allocates
// per call, with nil entries for idle pairs.
//
//cc:hotpath
func ExchangeScratch(net *clique.Network, strategy Strategy, sc *Scratch, msgs [][][]clique.Word) [][][]clique.Word {
	n := net.N()
	validateShape(n, msgs)
	switch strategy {
	case Direct:
		return exchangeDirect(net, sc, msgs)
	case TwoPhase:
		return exchangeTwoPhase(net, sc, msgs)
	case Auto:
		if autoTwoPhase(n, sc, msgs) {
			return exchangeTwoPhase(net, sc, msgs)
		}
		return exchangeDirect(net, sc, msgs)
	default:
		panic(fmt.Sprintf("routing: unknown strategy %d", int(strategy)))
	}
}

// autoTwoPhase resolves Auto for a materialised message matrix through the
// same PlanCosts the payload exchange uses — memoised with a Scratch, so a
// session replaying an oblivious pattern pays the striping arithmetic once
// per shape on either transport.
func autoTwoPhase(n int, sc *Scratch, msgs [][][]clique.Word) bool {
	var lens []int64
	if sc != nil {
		lens = sc.payLens(n * n)
	} else {
		lens = make([]int64, n*n)
	}
	for src, row := range msgs {
		for dst, vec := range row {
			lens[src*n+dst] = int64(len(vec))
		}
	}
	return PlanCosts(n, sc, lens).TwoPhase()
}

// validateShape panics unless msgs is an n×n message matrix — the shared
// precondition of every exchange variant.
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

//cc:hotpath
func exchangeDirect(net *clique.Network, sc *Scratch, msgs [][][]clique.Word) [][][]clique.Word {
	n := net.N()
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if len(msgs[src][dst]) > 0 {
				net.SendVec(src, dst, msgs[src][dst])
			}
		}
	}
	mail := net.Flush()
	var in [][][]clique.Word
	if sc != nil {
		in = sc.directIn(n)
	} else {
		in = make([][][]clique.Word, n) //cc:hotalloc-ok(nil-scratch transient fallback, documented on ExchangeScratch)
		for dst := 0; dst < n; dst++ {
			in[dst] = make([][]clique.Word, n) //cc:hotalloc-ok(nil-scratch transient fallback)
		}
	}
	for dst := 0; dst < n; dst++ {
		row := in[dst]
		for src := 0; src < n; src++ {
			row[src] = mail.From(dst, src)
		}
	}
	return in
}

// routedMeta packs (src, dst, idx) for a word in flight: 22 bits each for
// src and dst (cliques up to 4M nodes) and 20 bits for the position within
// its (src, dst) vector.
type routedMeta uint64

func packMeta(src, dst, idx int) routedMeta {
	return routedMeta(uint64(src)<<42 | uint64(dst)<<20 | uint64(idx))
}

func (m routedMeta) unpack() (src, dst, idx int) {
	return int(m >> 42), int(m >> 20 & 0x3fffff), int(m & 0xfffff)
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

//cc:hotpath
func exchangeTwoPhase(net *clique.Network, sc *Scratch, msgs [][][]clique.Word) [][][]clique.Word {
	n := net.N()
	var heldMeta [][]routedMeta // heldMeta[intermediary]
	var heldWord [][]clique.Word
	var in [][][]clique.Word
	if sc != nil {
		heldMeta, heldWord = sc.held(n)
		in = sc.ownedIn(n)
	} else {
		heldMeta = make([][]routedMeta, n)  //cc:hotalloc-ok(nil-scratch transient fallback)
		heldWord = make([][]clique.Word, n) //cc:hotalloc-ok(nil-scratch transient fallback)
		in = make([][][]clique.Word, n)     //cc:hotalloc-ok(nil-scratch transient fallback, documented on ExchangeScratch)
		for dst := 0; dst < n; dst++ {
			in[dst] = make([][]clique.Word, n) //cc:hotalloc-ok(nil-scratch transient fallback)
		}
	}
	// Pre-size the per-pair reassembly buffers (reusing capacity under a
	// Scratch); every position is overwritten by the forwarding pass.
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if k := len(msgs[src][dst]); k > 0 {
				in[dst][src] = resize(in[dst][src], k)
			}
		}
	}
	for src := 0; src < n; src++ {
		off := stripeOffset(src, n)
		flat := 0
		for dst := 0; dst < n; dst++ {
			vec := msgs[src][dst]
			if len(vec) >= 1<<20 {
				// Split points beyond the packed-index range never occur in
				// this library (vectors are ≤ n words); guard regardless.
				panic("routing: per-pair vector exceeds packed index range")
			}
			for idx, w := range vec {
				inter := (off + flat) % n
				net.Send(src, inter, w)
				heldMeta[inter] = append(heldMeta[inter], packMeta(src, dst, idx))
				heldWord[inter] = append(heldWord[inter], w)
				flat++
			}
		}
	}
	net.Flush()

	for inter := 0; inter < n; inter++ {
		hw := heldWord[inter]
		for i, m := range heldMeta[inter] {
			src, dst, idx := m.unpack()
			w := hw[i]
			net.Send(inter, dst, w)
			in[dst][src][idx] = w
		}
	}
	net.Flush()
	return in
}

// AllGather makes every node learn every node's local word vector. The
// returned slice is indexed by origin node and must be treated as read-only
// (it is shared by all receivers, which is sound because all nodes hold
// identical copies after the gather).
//
// Cost: 1 round to broadcast counts, ~ceil(K/n) rounds to spread the K
// total words evenly, and ceil(K/n) broadcast rounds to publish them.
func AllGather(net *clique.Network, vecs [][]clique.Word) [][]clique.Word {
	n := net.N()
	if len(vecs) != n {
		panic(fmt.Sprintf("routing: AllGather wants %d vectors, got %d", n, len(vecs)))
	}
	counts := make([]clique.Word, n)
	var total int64
	for v, vec := range vecs {
		counts[v] = clique.Word(len(vec))
		total += int64(len(vec))
	}
	net.BroadcastWord(counts)
	if total == 0 {
		out := make([][]clique.Word, n)
		copy(out, vecs)
		return out
	}
	chunk := (total + int64(n) - 1) / int64(n)

	// Spread: word at global position p goes to holder p/chunk. Each node
	// computes the same assignment from the broadcast counts.
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
