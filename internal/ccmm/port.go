package ccmm

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
	"github.com/algebraic-clique/algclique/internal/routing"
)

// This file is the typed exchange port: the one layer of this package that
// knows which transport a network runs and what a message looks like in
// words. Every engine is written once, against the port, in terms of typed
// messages — []T block rows, []ring.Tuple[T] streams — and the port carries
// them across the network's transport:
//
//   - direct: messages travel by reference as payloads and the words they
//     would occupy are charged analytically from the wire format's
//     EncodedLen (see internal/clique/payload.go);
//   - wire: each sender encodes its messages into words as it queues them,
//     the words travel to the receiver as a payload on their link, and each
//     receiver decodes its arrivals into a pooled receive arena, so the
//     engine reads the same typed shapes either way.
//
// The port has one level, and it never holds n×n state: a node queues each
// message on its link (send), flush delivers a phase as one exchange, and
// the receiver reads its messages back (from, each). The flush resolves
// routing.Auto through routing.TwoPhaseCosts from the word lengths of the
// links the phase touched, which are the same on either transport, so the
// ledger (rounds, words, flushes, phases) is identical by construction;
// the parity table (transport_test.go) and the golden ledger check it.
// The 3D engine's cube rides the same level (onCube). The dense engines'
// exchanges are oblivious (oblivious): their two-phase flushes may ride the
// König assignment instead of the stripe.

// wireFormat is the layout of one typed message in words. EncodedLen is the
// accounting side — the direct transport charges it, the wire transport
// occupies it — and must therefore be exact; CountFor inverts it for
// receivers, which learn a message's element count from the
// words that arrived. v names the node doing the work: formats that stage
// through per-node buffers index them by it.
type wireFormat[E any] interface {
	EncodedLen(elems int) int
	CountFor(words int) int // -1 when no element count occupies that many words
	encode(dst []clique.Word, msg []E, v int) []clique.Word
	decode(out []E, ws []clique.Word, v int)
}

// chunks is the wire format of dense messages: a concatenation of
// bulk-codec chunks of size elements each (a block row, a grid row, a whole
// matrix row). Each chunk is atomic — a packing codec's chunk is not the
// concatenation of its elements' encodings — so chunk k starts at k times
// the codec's EncodedLen(size), never at an element count.
type chunks[T any] struct {
	bc   ring.BulkCodec[T]
	size int
}

func (c chunks[T]) EncodedLen(elems int) int { return elems / c.size * c.bc.EncodedLen(c.size) }

func (c chunks[T]) CountFor(words int) int {
	w := c.bc.EncodedLen(c.size)
	if words%w != 0 {
		return -1
	}
	return words / w * c.size
}

func (c chunks[T]) encode(dst []clique.Word, msg []T, _ int) []clique.Word {
	for off := 0; off < len(msg); off += c.size {
		dst = c.bc.EncodeSlice(dst, msg[off:off+c.size])
	}
	return dst
}

func (c chunks[T]) decode(out []T, ws []clique.Word, _ int) {
	w := c.bc.EncodedLen(c.size)
	for k := 0; k*c.size < len(out); k++ {
		c.bc.DecodeSlice(out[k*c.size:(k+1)*c.size], ws[k*w:])
	}
}

// tuples is the wire format of the sparse engines' streams: one
// ring.TupleCodec chunk per message, its value halves staged through
// per-node buffers (vb, indexed by the working node).
type tuples[T any] struct {
	tc ring.TupleCodec[T]
	vb [][]T
}

// tupleFormat returns the tuple-stream format over bc, staging through
// sc's per-node buffers for T.
func tupleFormat[T any](sc *Scratch, bc ring.BulkCodec[T], n int) tuples[T] {
	ts := typedFrom[T](sc)
	growBufs(&ts.bufs, n)
	return tuples[T]{tc: ring.TupleCodec[T]{Val: bc}, vb: ts.bufs}
}

func (f tuples[T]) EncodedLen(elems int) int { return f.tc.EncodedLen(elems) }
func (f tuples[T]) CountFor(words int) int   { return f.tc.CountFor(words) }

func (f tuples[T]) encode(dst []clique.Word, msg []ring.Tuple[T], v int) []clique.Word {
	dst, f.vb[v] = f.tc.EncodeSlice(dst, msg, f.vb[v])
	return dst
}

func (f tuples[T]) decode(out []ring.Tuple[T], ws []clique.Word, v int) {
	f.vb[v] = f.tc.DecodeSlice(out, ws, f.vb[v])
}

// port carries one product's messages of element type E, laid out as f,
// over net's transport. A phase is one exchange: nodes queue their
// messages link by link — under ForEach, each from its own worker — the
// flush delivers them, and each receiver reads its deliveries back under
// the next ForEach:
//
//	net.ForEach(func(v int) { …px.send(v, u, msg)… })
//	mail := px.flush()
//	net.ForEach(func(u int) { …px.from(mail, u, v, 0)… })
//
// A message the port hands back is the sender's own slice on the direct
// transport, valid while the sender leaves it untouched, and a window of
// the receiver's arena on the wire, valid until the product ends.
type port[E any] struct {
	net   *clique.Network
	sc    *Scratch
	ts    *typedScratch[E]
	f     wireFormat[E]
	cube  bool // set by onCube: a self-send is free and outside Auto
	known bool // set by oblivious: every message length is common knowledge
	wire  bool
}

// newPort opens the product's port for E. It truncates E's message
// queues and receive arenas, whatever an aborted product left in them, so
// it must precede the product's first send; further formats over the same
// element type come from with.
func newPort[E any](net *clique.Network, sc *Scratch, f wireFormat[E]) port[E] {
	p := port[E]{net: net, sc: sc, ts: typedFrom[E](sc), f: f, wire: net.Transport() == clique.TransportWire}
	n := net.N()
	for side := range p.ts.outbox {
		truncBufs(&p.ts.outbox[side], n)
	}
	if p.wire {
		for side := range p.ts.words {
			truncBufs(&p.ts.words[side], n)
			truncBufs(&p.ts.wins[side], n)
		}
		truncBufs(&p.ts.recv, n)
	}
	return p
}

// with returns the port speaking format f (queues and arenas are shared).
func (p port[E]) with(f wireFormat[E]) port[E] {
	p.f = f
	return p
}

// onCube returns the port for the cube of the 3D engine, whose subcube
// hosts lie inside their own row groups, so a node often feeds the subcube
// it hosts: such a self-send is delivered locally and by reference, free
// in the model and outside the flush's Auto resolution. (The other
// engines' self-messages take part in it.)
func (p port[E]) onCube() port[E] {
	p.cube = true
	return p
}

// oblivious returns the port for an engine whose every message length
// follows from n, the layout and the codec widths, which every node knows:
// its flushes may ride the König assignment every node computes alike
// (routing.ObliviousCosts) instead of Lenzen's stripe. The dense engines'
// exchanges are such; the sparse engine's, whose lengths follow its data,
// are not.
func (p port[E]) oblivious() port[E] {
	p.known = true
	return p
}

// reserve appends k elements of (stale) space to node v's receive arena
// and returns the window. An arena that outgrows its capacity moves, but
// windows handed out earlier keep the old array alive and intact.
//
//cc:hotpath
func (p port[E]) reserve(v, k int) []E {
	a := p.ts.recv[v]
	off := len(a)
	if cap(a)-off < k {
		a = slices.Grow(a, k)
	}
	a = a[:off+k]
	p.ts.recv[v] = a
	return a[off : off+k : off+k]
}

// recvMsg decodes one arrival, whose element count comes from the words
// delivered, into node v's arena.
func (p port[E]) recvMsg(v int, ws []clique.Word) []E {
	k := p.f.CountFor(len(ws))
	if k < 0 {
		panic(fmt.Sprintf("ccmm: malformed %d-word message on the wire", len(ws)))
	}
	out := p.reserve(v, k)
	p.f.decode(out, ws, v)
	return out
}

// outMsg is one message queued at the port, under the node that sends it,
// with its length in words.
type outMsg[E any] struct {
	dst, words int32
	msg        []E
}

func byDst(a, b routing.Link) int { return cmp.Compare(a.Dst, b.Dst) }

// send queues msg on the link src→dst for the port's next flush, behind
// whatever src queued there before: a link delivers its messages in send
// order. msg must stay untouched until its receiver has read it. On the
// wire transport src encodes msg here, on its own worker, into its word
// arena, and queues the window beside the message. Safe from src's ForEach
// worker.
//
//cc:hotpath
func (p port[E]) send(src, dst int, msg []E) {
	side := p.ts.side
	if p.wire {
		var win []clique.Word // a cube self-send travels by reference
		if !(p.cube && src == dst) {
			arena := p.ts.words[side]
			start := len(arena[src])
			arena[src] = p.f.encode(arena[src], msg, src)
			win = arena[src][start:len(arena[src]):len(arena[src])] // a grown arena leaves earlier windows intact
		}
		p.ts.wins[side][src] = append(p.ts.wins[side][src], win)
	}
	ob := p.ts.outbox[side]
	ob[src] = append(ob[src], outMsg[E]{dst: int32(dst), words: int32(p.f.EncodedLen(len(msg))), msg: msg})
}

// flush delivers everything sent since the port's last flush as one
// exchange and resolves routing.Auto for it from the links it touched:
// each link's word length — the sum of its messages' EncodedLen, on either
// transport — goes through routing.TwoPhaseCosts (routing.ObliviousCosts
// on an oblivious port), and a two-phase choice charges both phases
// analytically with the messages riding the second flush for free, and
// grades the exchange by the link list's heaviest sender and receiver. The
// work is proportional to n plus the traffic; nothing is n×n.
//
// Each message travels as a payload, in send order: on the direct
// transport a pointer to its queue entry, on the wire transport its
// encoded words, which the receiver decodes. A delivery must be read
// before the port's next flush. Sends for that flush may interleave with
// the reads: the queues have two sides, and each flush switches to the
// other.
//
//cc:hotpath
func (p port[E]) flush() *clique.Mail {
	side := p.ts.side
	ob := p.ts.outbox[side]
	p.ts.side ^= 1
	links, maxWords := p.sc.links[:0], int64(0)
	for src, msgs := range ob {
		first := len(links)
		for _, m := range msgs {
			if !(p.cube && src == int(m.dst)) {
				links = append(links, routing.Link{Src: int32(src), Dst: m.dst, Words: int64(m.words)})
			}
		}
		// One Link per link: the messages sharing one add up.
		slices.SortFunc(links[first:], byDst)
		k := first
		for _, l := range links[first:] {
			if k > first && links[k-1].Dst == l.Dst {
				links[k-1].Words += l.Words
				continue
			}
			links[k] = l
			k++
		}
		links = links[:k]
	}
	for _, l := range links {
		maxWords = max(maxWords, l.Words)
	}
	p.sc.links = links
	// Two-phase needs two rounds as soon as any word leaves its node, so
	// it can only win against a direct schedule of three rounds or more.
	var c routing.Costs
	switch {
	case maxWords <= 2:
	case p.known:
		c = routing.ObliviousCosts(p.net.N(), p.sc.rt, links)
	default:
		c = routing.TwoPhaseCosts(p.net.N(), p.sc.rt, links)
	}
	twoPhase := c.TwoPhase()
	if twoPhase {
		p.net.GradeExchange(c.Out, c.In)
		p.net.FlushAnalytic(c.MaxA, c.TotalA)
	}
	for src, msgs := range ob {
		for i := range msgs {
			m := &msgs[i]
			var w int64
			if !twoPhase {
				w = int64(m.words)
			}
			var pl clique.Payload = &m.msg
			if p.wire && !(p.cube && src == int(m.dst)) {
				pl = &p.ts.wins[side][src][i]
			}
			p.net.SendPayload(src, int(m.dst), w, pl)
		}
		// The entries, windows and words stay readable until this side
		// refills.
		ob[src] = msgs[:0]
		if p.wire {
			p.ts.wins[side][src] = p.ts.wins[side][src][:0]
			p.ts.words[side][src] = p.ts.words[side][src][:0]
		}
	}
	if twoPhase {
		return p.net.FlushAnalytic(c.MaxB, c.TotalB)
	}
	return p.net.Flush()
}

// from returns the k-th message dst received from src in mail's flush, in
// send order (nil if there is none).
//
//cc:hotpath
func (p port[E]) from(mail *clique.Mail, dst, src, k int) []E {
	ps := mail.PayloadsFrom(dst, src)
	switch {
	case k >= len(ps):
		return nil
	case p.wire && !(p.cube && src == dst):
		return p.recvMsg(dst, *(ps[k].(*[]clique.Word)))
	}
	return *(ps[k].(*[]E))
}

// each calls f with the first message dst received from every source in
// mail's flush, in increasing source order, at a cost proportional to
// dst's traffic rather than to n. Safe from dst's ForEach worker.
//
//cc:hotpath
func (p port[E]) each(mail *clique.Mail, dst int, f func(src int, msg []E)) {
	if p.wire {
		mail.EachPayload(dst, func(src int, ps []clique.Payload) { f(src, p.recvMsg(dst, *(ps[0].(*[]clique.Word)))) })
		return
	}
	mail.EachPayload(dst, func(src int, ps []clique.Payload) { f(src, *(ps[0].(*[]E))) })
}

// Transpose gives every node v column v of a row-distributed int64 matrix,
// as row v of the matrix it returns: node w sends m[w][v] to v, one word per
// ordered pair — exactly one round (none on a single node, whose only link
// is the free self-link). The direct transport charges that round
// analytically and each node reads its column in place. The result comes
// from sc's free list (a nil sc is the network's own), the caller's to
// return once read.
func Transpose(net *clique.Network, sc *Scratch, m *RowMat[int64]) *RowMat[int64] {
	n := net.N()
	rows := m.Rows
	col := GetMat[int64](sc.orOf(net), n)
	var mail *clique.Mail
	if net.Transport() == clique.TransportWire {
		for w := 0; w < n; w++ {
			for v := 0; v < n; v++ {
				net.Send(w, v, clique.Word(rows[w][v]))
			}
		}
		mail = net.Flush()
	} else {
		net.FlushAnalytic(min(int64(n-1), 1), int64(n)*int64(n-1))
		net.GradeExchange(int64(n-1), int64(n-1))
	}
	net.ForEach(func(v int) {
		cv := col.Rows[v]
		for w := 0; w < n; w++ {
			if mail != nil {
				cv[w] = int64(mail.From(v, w)[0])
			} else {
				cv[w] = rows[w][v]
			}
		}
	})
	return col
}

// Learn is the "learn everything" step of Dolev et al. for a structure the
// nodes hold one row each of: every node learns every row, through
// routing.AllGather. lens[v] is the length of row v in words, which row(v)
// builds only where words really travel. On the wire transport the rows
// are gathered and handed to rebuild, whose result every node then holds;
// the direct transport charges the same ledger from lens and returns local,
// which every node reads in place.
func Learn[G any](net *clique.Network, local G, lens []int64, row func(v int) []clique.Word, rebuild func(all [][]clique.Word) G) G {
	if net.Transport() != clique.TransportWire {
		routing.ChargeAllGather(net, lens)
		return local
	}
	vecs := make([][]clique.Word, len(lens))
	for v := range vecs {
		vecs[v] = row(v)
	}
	return rebuild(routing.AllGather(net, vecs))
}
