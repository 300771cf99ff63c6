package ccmm

import (
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// PayloadCorrupters are the fault injector's direct-plane corrupters for
// every payload type the engines ship by reference (see
// clique.PayloadCorrupter): dense rows of algebra elements, packed word
// chunks, and the sparse engine's tuple streams. The simulator stays
// agnostic of payload types; the layer that boxes them registers how to
// perturb them. Each corrupter flips one bit of exactly one element,
// chosen by the injector's draw, and only Val halves of tuples are touched
// — a garbled value models a bit flip in transit, while a garbled index
// would mostly model a different bug (misrouted memory) and routinely
// escalate to out-of-range panics instead of wrong data.
var PayloadCorrupters = []clique.PayloadCorrupter{
	corruptInt64Row,
	corruptWordRow,
	corruptValWRow,
	corruptTupleInt64Row,
}

// flipInt64 flips the drawn bit of x, or bit 0 when x is 1: Boolean
// products ride int64 as 0/1, and flipping any other bit of a 1 would
// leave it true, a counted corruption that changes no Boolean value.
func flipInt64(x int64, h uint64) int64 {
	if x == 1 {
		return 0
	}
	return x ^ int64(1)<<((h>>32)&63)
}

func corruptInt64Row(p clique.Payload, h uint64) bool {
	s, ok := p.(*[]int64)
	if !ok || len(*s) == 0 {
		return false
	}
	i := h % uint64(len(*s))
	(*s)[i] = flipInt64((*s)[i], h)
	return true
}

func corruptWordRow(p clique.Payload, h uint64) bool {
	s, ok := p.(*[]clique.Word)
	if !ok || len(*s) == 0 {
		return false
	}
	(*s)[h%uint64(len(*s))] ^= 1 << ((h >> 32) & 63)
	return true
}

func corruptValWRow(p clique.Payload, h uint64) bool {
	s, ok := p.(*[]ring.ValW)
	if !ok || len(*s) == 0 {
		return false
	}
	(*s)[h%uint64(len(*s))].V ^= int64(1) << ((h >> 32) & 63)
	return true
}

func corruptTupleInt64Row(p clique.Payload, h uint64) bool {
	s, ok := p.(*[]ring.Tuple[int64])
	if !ok || len(*s) == 0 {
		return false
	}
	i := h % uint64(len(*s))
	(*s)[i].Val = flipInt64((*s)[i].Val, h)
	return true
}
