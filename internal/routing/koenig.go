package routing

import (
	"math/bits"
	"slices"
	"sync"
)

// This file is the routing layer's oblivious side: the two-phase schedule
// of an exchange whose every message length is common knowledge — a
// function of n, the layout and the codec widths — so that every node can
// compute one word-to-intermediary assignment locally, with no round.
// Lenzen's stripe (TwoPhaseCosts) puts each sender's words on
// intermediaries from the sender's own offset, which holds phase A at its
// floor but lets arcs from different senders stack on one destination in
// phase B. The König assignment holds both phases at their floors.
//
// Cut each sender's off-node words, in link order, into virtual senders of
// at most n words, and each receiver's, in link order, into virtual
// receivers of at most n. Every word is an edge of the bipartite multigraph
// between them, whose maximum degree is n, so by König's edge-colouring
// theorem the n node ids colour it properly. A word coloured c rides
// intermediary c. A sender puts at most one word per virtual sender on each
// intermediary — phase A takes at most ⌈out/n⌉ ≤ ⌈out/(n−1)⌉ rounds — and a
// receiver takes at most one per virtual receiver from each — phase B at
// most ⌈in/n⌉. (The cut is n, not n−1, for the reason the stripe laps all
// n nodes: the words on a node's own colour cost that node no link.) A word
// coloured with its own sender or receiver crosses one link instead of
// two, so the colouring takes that colour whenever it is free at both
// ends.

// maxKoenigCells bounds the colouring's table (virtual endpoints × n
// colours, four bytes a cell, 64 MiB at the bound). A larger pattern keeps
// the stripe.
const maxKoenigCells = 1 << 24

// koenig is the working set of one colouring. The virtual senders are the
// first vertices, the virtual receivers the rest; at[v·n + c] is the
// vertex v's colour-c edge reaches (−1 when c is free at v), and free is
// the same as one bitset of words per vertex, so that the colours free at
// both ends of a link are one AND.
type koenig struct {
	n, words int
	at       []int32
	free     []uint64
	path     []int32
}

// newKoenig sizes the colouring of a pattern whose nodes send out[v] and
// receive in[v] off-node words and returns, besides it, where each node's
// virtual senders and receivers start among the vertices. ok is false when
// the table would exceed maxKoenigCells.
func newKoenig(n int, out, in []int64) (k *koenig, sBase, rBase []int32, ok bool) {
	cut := int64(n) // words per virtual endpoint
	sBase, rBase = make([]int32, n+1), make([]int32, n+1)
	for v := 0; v < n; v++ {
		sBase[v+1] = sBase[v] + int32((out[v]+cut-1)/cut)
	}
	rBase[0] = sBase[n]
	for v := 0; v < n; v++ {
		rBase[v+1] = rBase[v] + int32((in[v]+cut-1)/cut)
	}
	verts := int(rBase[n])
	if int64(verts)*int64(n) > maxKoenigCells {
		return nil, nil, nil, false
	}
	k = &koenig{n: n, words: (n + 63) / 64, at: make([]int32, verts*n)}
	for i := range k.at {
		k.at[i] = -1
	}
	k.free = make([]uint64, verts*k.words)
	for v := 0; v < verts; v++ {
		for c := 0; c < n; c++ {
			k.free[v*k.words+c/64] |= 1 << (c % 64)
		}
	}
	return k, sBase, rBase, true
}

func (k *koenig) isFree(v int32, c int) bool {
	return k.free[int(v)*k.words+c/64]&(1<<(c%64)) != 0
}

// lowestFree returns the lowest colour free at v; while one of v's at most
// n words is uncoloured, one is.
func (k *koenig) lowestFree(v int32) int {
	fw := k.free[int(v)*k.words : int(v+1)*k.words]
	for w, x := range fw {
		if x != 0 {
			return w*64 + bits.TrailingZeros64(x)
		}
	}
	panic("routing: a virtual endpoint with n edges")
}

// set makes the colour-c entry of v point at u (−1 frees c at v).
func (k *koenig) set(v int32, c int, u int32) {
	k.at[int(v)*k.n+c] = u
	if u < 0 {
		k.free[int(v)*k.words+c/64] |= 1 << (c % 64)
	} else {
		k.free[int(v)*k.words+c/64] &^= 1 << (c % 64)
	}
}

// colour gives m parallel words between virtual sender u and virtual
// receiver v, of the link src → dst, m distinct colours: first the colours
// free at both ends — src, then dst, then the others in increasing order —
// and for each word left over one alternating-path flip.
func (k *koenig) colour(u, v int32, m int64, src, dst int) {
	for _, c := range [2]int{src, dst} {
		if m > 0 && k.isFree(u, c) && k.isFree(v, c) {
			k.set(u, c, v)
			k.set(v, c, u)
			m--
		}
	}
	fu := k.free[int(u)*k.words : int(u+1)*k.words]
	fv := k.free[int(v)*k.words : int(v+1)*k.words]
	for w := 0; w < k.words && m > 0; w++ {
		for both := fu[w] & fv[w]; both != 0 && m > 0; both &= both - 1 {
			c := w*64 + bits.TrailingZeros64(both)
			k.set(u, c, v)
			k.set(v, c, u)
			m--
		}
	}
	for ; m > 0; m-- {
		k.flip(u, v, src, dst)
	}
}

// flip colours one word between u and v when no colour is free at both:
// a, free at u (src if it is), is busy at v, and b, free at v (dst if it
// is), is busy at u. The path from v that alternates a and b edges cannot
// reach u — the graph is bipartite and u has no a edge — so swapping a and
// b along it frees a at v, and the word takes a.
func (k *koenig) flip(u, v int32, src, dst int) {
	a, b := src, dst
	if !k.isFree(u, a) {
		a = k.lowestFree(u)
	}
	if !k.isFree(v, b) {
		b = k.lowestFree(v)
	}
	path := append(k.path[:0], v)
	for x, c, next := v, a, b; ; c, next = next, c {
		y := k.at[int(x)*k.n+c]
		if y < 0 {
			break
		}
		path = append(path, y)
		x = y
	}
	for _, x := range path {
		ea, eb := k.at[int(x)*k.n+a], k.at[int(x)*k.n+b]
		k.set(x, a, eb)
		k.set(x, b, ea)
	}
	k.path = path
	k.set(u, a, v)
	k.set(v, a, u)
}

// offNode returns what each node sends and receives off its own node in
// links.
func offNode(n int, links []Link) (out, in []int64) {
	out, in = make([]int64, n), make([]int64, n)
	for _, l := range links {
		if l.Src != l.Dst {
			out[l.Src] += l.Words
			in[l.Dst] += l.Words
		}
	}
	return out, in
}

// koenigColouring colours the off-node words of links (sorted by
// (Src, Dst), each link once) link by link: a link's words are cut where
// its sender's or its receiver's running count crosses a multiple of n,
// and each piece takes its colours between one virtual sender and one
// virtual receiver. It returns the colouring with where each node's
// virtual senders (sBase) and receivers (rBase) start among its vertices;
// ok is false when the pattern is too large to colour.
func koenigColouring(n int, links []Link, out, in []int64) (k *koenig, sBase, rBase []int32, ok bool) {
	k, sBase, rBase, ok = newKoenig(n, out, in)
	if !ok {
		return nil, nil, nil, false
	}
	cut := int64(n) // words per virtual endpoint
	inPos := make([]int64, n)
	var ps int64
	for i, l := range links {
		if i == 0 || l.Src != links[i-1].Src {
			ps = 0
		}
		if l.Src == l.Dst {
			continue
		}
		pr := inPos[l.Dst]
		for m := l.Words; m > 0; {
			seg := min(m, cut-ps%cut, cut-pr%cut)
			k.colour(sBase[l.Src]+int32(ps/cut), rBase[l.Dst]+int32(pr/cut), seg, int(l.Src), int(l.Dst))
			ps, pr, m = ps+seg, pr+seg, m-seg
		}
		inPos[l.Dst] = pr
	}
	return k, sBase, rBase, true
}

// koenigCosts charges the two-phase schedule of the König assignment of
// links (sorted by (Src, Dst), each link once): phase A puts a sender's
// words of colour c on its link to c, phase B forwards them from c to
// their receiver, and a word on its own sender's or receiver's colour
// skips that phase's link. Self-links never leave their node and take no
// part. Direct, Out and In are the pattern's, as TwoPhaseCosts reports
// them. ok is false when the pattern is too large to colour (see
// maxKoenigCells).
func koenigCosts(n int, links []Link) (c Costs, ok bool) {
	if n <= 1 {
		return c, true
	}
	out, in := offNode(n, links)
	k, sBase, rBase, ok := koenigColouring(n, links, out, in)
	if !ok {
		return c, false
	}
	// load[c] tallies the words of one node's virtual endpoints on colour
	// c: on its links to intermediaries (phase A) or from them (phase B).
	load := make([]int64, n)
	tally := func(v int, lo, hi int32) (mx, total int64) {
		clear(load)
		for x := lo; x < hi; x++ {
			for col, y := range k.at[int(x)*n : int(x+1)*n] {
				if y >= 0 {
					load[col]++
				}
			}
		}
		for col, l := range load {
			if col != v {
				mx, total = max(mx, l), total+l
			}
		}
		return mx, total
	}
	for v := 0; v < n; v++ {
		mx, total := tally(v, sBase[v], sBase[v+1])
		c.MaxA, c.TotalA = max(c.MaxA, mx), c.TotalA+total
		mx, total = tally(v, rBase[v], rBase[v+1])
		c.MaxB, c.TotalB = max(c.MaxB, mx), c.TotalB+total
	}
	for _, l := range links {
		if l.Src != l.Dst {
			c.Direct = max(c.Direct, l.Words)
		}
	}
	c.Out, c.In = slices.Max(out), slices.Max(in)
	return c, true
}

// ObliviousCosts is TwoPhaseCosts for a pattern whose every length is
// common knowledge: the same Costs, except that the two-phase aggregates
// are the König assignment's (koenigCosts) wherever the stripe's would
// win Auto and the assignment charges fewer rounds and no more words. A
// flush Auto sends direct stays direct, and no flush is charged more than
// the stripe would charge it.
//
// The result is memoised for the process per (n, links): an engine replays
// the same few patterns every product, so a warm flush hashes its links
// and looks them up, allocating nothing; only a pattern's first flush
// colours.
//
//cc:hotpath
func ObliviousCosts(n int, sc *Scratch, links []Link) Costs {
	key := obliviousKey{n: n, hash: hashLinks(links)}
	obliviousMemo.Lock()
	bucket := obliviousMemo.m[key] // its plans are never written again, so they compare unlocked
	obliviousMemo.Unlock()
	for _, p := range bucket {
		if slices.Equal(p.links, links) {
			return p.c
		}
	}
	c := TwoPhaseCosts(n, sc, links)
	if c.TwoPhase() {
		if k, ok := koenigCosts(n, links); ok && k.MaxA+k.MaxB < c.MaxA+c.MaxB && k.TotalA+k.TotalB <= c.TotalA+c.TotalB {
			c = k
		}
	}
	obliviousMemo.Lock()
	defer obliviousMemo.Unlock()
	if obliviousMemo.m == nil || obliviousMemo.links+len(links) > maxObliviousLinks {
		obliviousMemo.m, obliviousMemo.links = map[obliviousKey][]obliviousPlan{}, 0 //cc:hotalloc-ok(cold: a pattern's first flush)
	}
	obliviousMemo.m[key] = append(obliviousMemo.m[key], obliviousPlan{links: slices.Clone(links), c: c}) //cc:hotalloc-ok(cold: a pattern's first flush)
	obliviousMemo.links += len(links)
	return c
}

// obliviousKey is the memo's bucket: a pattern's clique size and the hash
// of its links.
type obliviousKey struct {
	n    int
	hash uint64
}

// obliviousPlan is one memoised pattern and its resolved charge.
type obliviousPlan struct {
	links []Link
	c     Costs
}

// maxObliviousLinks bounds the links the memo keeps (16 bytes each); a
// full memo starts over. An engine flushes a handful of patterns per clique
// size and codec width: the 3D distribute at n = 256 has 17 000 links.
const maxObliviousLinks = 1 << 20

var obliviousMemo struct {
	sync.Mutex
	m     map[obliviousKey][]obliviousPlan
	links int // kept in m
}

// hashLinks is FNV-1a over the links' fields.
func hashLinks(links []Link) uint64 {
	h := uint64(14695981039346656037)
	for _, l := range links {
		for _, x := range [3]uint64{uint64(l.Src), uint64(l.Dst), uint64(l.Words)} {
			h = (h ^ x) * 1099511628211
		}
	}
	return h
}
