package ccmm

import (
	"cmp"
	"errors"
	"fmt"
	"reflect"
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
//   - wire: each node encodes its messages chunk by chunk into words, the
//     words move through the network — through the link queues at the
//     message-matrix level, as word vectors at the link level — and each
//     receiver decodes its arrivals into a pooled receive arena, so the
//     engine reads the same typed shapes either way.
//
// Both sides resolve routing.Auto from the same per-link word lengths
// through the same routing.TwoPhaseCosts, so the ledger — rounds, words,
// flushes, phases — is identical by construction. The port has two levels:
// a message-matrix exchange (the dense engines, the 3D engine's
// virtual-cube multiplexing), and a link level — send, flush, each, from —
// for the sparse tile engine, which must never hold n×n state. Both are
// balanced: every exchange resolves routing.Auto. TransportVerify is
// decided here as well: runProduct runs the one body on the caller's
// network, again on a wire shadow, and diffs products and ledgers.

// ErrTransportDiverged reports that the direct and wire transports
// disagreed on a product's result or accounting under TransportVerify —
// a simulator bug, never an input error.
var ErrTransportDiverged = errors.New("ccmm: direct and wire transports diverged")

// runProduct executes one engine body under the network's transport with
// the abort-to-error conversion every product entry point owes its callers.
// Under TransportVerify the body runs twice — on the caller's network
// (whose port moves data by reference) and on a wire shadow that inherits
// the caller's context and remaining round budget — and the product is
// returned only if values and charged rounds/words/flushes/phases agree. A
// nil sc is the network's own working set; the shadow, a network of its
// own, runs on its own.
func runProduct[P any](net *clique.Network, sc *Scratch, body func(net *clique.Network, sc *Scratch) (P, error)) (p P, err error) {
	defer catchAbort(&err)
	sc = sc.orOf(net)
	if net.Transport() != clique.TransportVerify {
		return body(net, sc)
	}
	shadow := net.Shadow(clique.TransportWire)
	defer shadow.Close()
	before := net.Stats()
	var none P
	if p, err = body(net, sc); err != nil {
		return none, err
	}
	q, err := body(shadow, ScratchOf(shadow))
	if err != nil {
		return none, fmt.Errorf("ccmm: wire shadow run failed: %w", err)
	}
	if err := diffLedger(before, net.Stats(), shadow.Stats()); err != nil {
		return none, err
	}
	if !reflect.DeepEqual(p, q) {
		return none, fmt.Errorf("%w: products differ", ErrTransportDiverged)
	}
	return p, nil
}

// diffLedger compares the caller-network run's accounting delta (after −
// before) against the wire shadow's full ledger.
func diffLedger(before, after, wire clique.Stats) error {
	if d, w := after.Rounds-before.Rounds, wire.Rounds; d != w {
		return fmt.Errorf("%w: rounds %d (direct) != %d (wire)", ErrTransportDiverged, d, w)
	}
	if d, w := after.Words-before.Words, wire.Words; d != w {
		return fmt.Errorf("%w: words %d (direct) != %d (wire)", ErrTransportDiverged, d, w)
	}
	if d, w := after.Flushes-before.Flushes, wire.Flushes; d != w {
		return fmt.Errorf("%w: flushes %d (direct) != %d (wire)", ErrTransportDiverged, d, w)
	}
	dp := after.Phases[len(before.Phases):]
	if len(dp) != len(wire.Phases) {
		return fmt.Errorf("%w: %d phases (direct) != %d (wire)", ErrTransportDiverged, len(dp), len(wire.Phases))
	}
	for i := range dp {
		if dp[i] != wire.Phases[i] {
			return fmt.Errorf("%w: phase %q %+v (direct) != %+v (wire)", ErrTransportDiverged, dp[i].Name, dp[i], wire.Phases[i])
		}
	}
	return nil
}

// wireFormat is the layout of one typed message in words. EncodedLen is the
// accounting side — the direct transport charges it, the wire transport
// occupies it — and must therefore be exact; CountFor inverts it for
// link-level receivers, which learn a message's element count from the
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
// over net's transport. Everything it hands back — view matrices from the
// exchanges, message slices from the link-level reads — may alias sender
// buffers (direct) or the scratch's receive arenas (wire) and stays valid
// until the product ends, or until every delivery taken so far has been
// released.
//
// A matrix-level exchange is three calls, mirroring what the nodes do. Node
// r builds its outgoing messages under ForEach and posts them; exchange
// routes the traffic between the fan-outs; node r opens its deliveries
// under the next ForEach before reading them:
//
//	net.ForEach(func(r int) { …build msgs[r][·]…; px.post(msgs, r) })
//	in := px.exchange(msgs)
//	net.ForEach(func(r int) { px.open(in, r); …read in[r][·]… })
//
// post and open are free on the direct transport; on the wire they are
// where node r encodes and decodes, on its own worker and while its
// messages are hot. A delivery must be opened before the next exchange.
type port[E any] struct {
	net  *clique.Network
	sc   *Scratch
	ts   *typedScratch[E]
	f    wireFormat[E]
	cube cubeLayout // set by over: messages are addressed between the cube's virtual nodes
	wire bool
}

// newPort opens the product's port for E. It truncates E's receive arenas
// and link-level queues, whatever an aborted product left in them, so it
// must precede the product's first exchange; further formats over the same
// element type come from with.
func newPort[E any](net *clique.Network, sc *Scratch, f wireFormat[E]) port[E] {
	p := port[E]{net: net, sc: sc, ts: typedFrom[E](sc), f: f, wire: net.Transport() == clique.TransportWire}
	for side := range p.ts.outbox {
		growBufs(&p.ts.outbox[side], net.N())
		for v, q := range p.ts.outbox[side] {
			p.ts.outbox[side][v] = q[:0]
		}
	}
	if p.wire {
		n := net.N()
		growBufs(&p.ts.recv, n)
		p.truncateArenas()
		p.ts.live = 0
		sc.wireMsgs(n)
	}
	return p
}

// with returns the port speaking format f (the arenas are shared).
func (p port[E]) with(f wireFormat[E]) port[E] {
	p.f = f
	return p
}

// over returns the port addressing the virtual nodes of the padded cube l:
// msgs[v][u] travels from virtual node v to virtual node u, i.e. from real
// node v mod n to real node u mod n. Pairs hosted on the same real node
// are delivered locally (free in the model, like any self-send); the rest
// is multiplexed onto the real links in (virtual source, virtual
// destination) order and split apart at the receiver. The 3D engine is
// oblivious — every message length is fixed by (n, c) alone — so the split
// points are globally computable and no headers travel.
func (p port[E]) over(l cubeLayout) port[E] {
	p.cube = l
	return p
}

// hosted reports whether the pair of real nodes never touches the network:
// on the cube, a node's messages to the virtual nodes it hosts itself.
func (p port[E]) hosted(rv, ru int) bool { return p.cube.vn > 0 && rv == ru }

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

// recvMsg decodes one link-level arrival, whose element count comes from
// the words delivered, into node v's arena.
func (p port[E]) recvMsg(v int, ws []clique.Word) []E {
	k := p.f.CountFor(len(ws))
	if k < 0 {
		panic(fmt.Sprintf("ccmm: malformed %d-word message on the wire", len(ws)))
	}
	out := p.reserve(v, k)
	p.f.decode(out, ws, v)
	return out
}

// post hands real node r's outgoing messages to the port: row r of msgs,
// plus the rows of the other virtual nodes r hosts on the cube. The wire
// transport encodes them link by link into r's word arena, each link's
// messages in the (source, destination) order the receivers split them by.
//
//cc:hotpath
func (p port[E]) post(msgs [][][]E, r int) {
	if !p.wire {
		return
	}
	out, buf := p.sc.wmsgs[r], p.sc.wout[r][:0]
	n := len(out)
	for ru := range out {
		start := len(buf)
		if !p.hosted(r, ru) {
			for v := r; v < len(msgs); v += n {
				for u := ru; u < len(msgs); u += n {
					if msg := msgs[v][u]; len(msg) > 0 {
						buf = p.f.encode(buf, msg, r)
					}
				}
			}
		}
		out[ru] = buf[start:len(buf):len(buf)] // a grown arena leaves earlier windows intact
	}
	p.sc.wout[r] = buf
}

// exchange delivers the posted msgs[src][dst] (empty entries carry nothing)
// through routing.Auto and returns the view matrix in[dst][src]; entries
// of idle pairs are nil.
//
//cc:hotpath
func (p port[E]) exchange(msgs [][][]E) [][][]E {
	n := p.net.N()
	in := p.ts.getViews(len(msgs))
	switch {
	case p.wire:
		if p.ts.live == 0 { // every earlier delivery was released: its windows are dead
			p.truncateArenas()
		}
		p.ts.live++
		p.sc.wgot, p.ts.sent = routing.ExchangeScratch(p.net, routing.Auto, p.sc.rt, p.sc.wmsgs), msgs
		for _, row := range p.sc.wmsgs { // the network copied the words into its queues
			clear(row)
		}
		p.sc.linkOffs(n * n) // open's consumed words per real link [dst*n + src]
	case p.cube.vn == 0:
		routing.ExchangePayload(p.net, routing.Auto, p.sc.rt, msgs,
			func(elems int) int64 { return int64(p.f.EncodedLen(elems)) }, in)
	default:
		p.exchangeCube(msgs, in)
	}
	return in
}

// open makes real node r's deliveries in in readable: the wire transport
// decodes the words that arrived on r's links into r's receive arena,
// consuming each link in the order post filled it (the receiver knows the
// senders' message lengths — the traffic is oblivious, or was announced by
// a census).
//
//cc:hotpath
func (p port[E]) open(in [][][]E, r int) {
	if !p.wire {
		return
	}
	n := p.net.N()
	sent, got, offs := p.ts.sent, p.sc.wgot[r], p.sc.offs[r*n:(r+1)*n]
	for v := range sent {
		rv := v % n
		for u := r; u < len(sent); u += n {
			msg := sent[v][u]
			switch {
			case len(msg) == 0:
			case p.hosted(rv, r):
				in[u][v] = msg
			default:
				o, w := offs[rv], p.f.EncodedLen(len(msg))
				in[u][v] = p.reserve(r, len(msg))
				p.f.decode(in[u][v], got[rv][o:o+w], r)
				offs[rv] = o + w
			}
		}
	}
}

// release returns a consumed delivery's view matrix to the pool. Once no
// delivery is outstanding, the wire transport's next exchange reuses the
// receive arenas instead of growing them.
func (p port[E]) release(in [][][]E) {
	p.ts.putViews(in)
	if p.wire {
		p.ts.live--
	}
}

func (p port[E]) truncateArenas() {
	for v := range p.ts.recv {
		p.ts.recv[v] = p.ts.recv[v][:0]
	}
}

// exchangeCube is the direct transport's exchange over the cube: one
// payload per virtual pair, multiplexed FIFO onto the real links, with the
// per-link word loads — the EncodedLen sums the wire transport
// concatenates — charged analytically.
//
//cc:hotpath
func (p port[E]) exchangeCube(vmsgs, vin [][][]E) {
	l := p.cube
	n := l.n
	loads := p.sc.linkWords(n * n)
	for v := range vmsgs {
		rv := l.real(v)
		for u, msg := range vmsgs[v] {
			if ru := l.real(u); ru != rv && len(msg) > 0 {
				loads[rv*n+ru] += int64(p.f.EncodedLen(len(msg)))
			}
		}
	}
	send := func(charged bool) {
		for v := range vmsgs {
			rv := l.real(v)
			row := vmsgs[v]
			for u := range row {
				if ru := l.real(u); ru != rv && len(row[u]) > 0 {
					var w int64
					if charged {
						w = int64(p.f.EncodedLen(len(row[u])))
					}
					p.net.SendPayload(rv, ru, w, &row[u])
				}
			}
		}
	}
	// Resolve Auto exactly as the encoded exchange does, reusing the
	// memoised schedule aggregates for the analytic charge.
	c := routing.PlanCosts(n, p.sc.rt, loads)
	var mail *clique.Mail
	if c.TwoPhase() {
		// The word loads of both Lenzen phases are charged analytically;
		// the payloads ride the final flush with zero additional words.
		p.net.FlushAnalytic(c.MaxA, c.TotalA)
		send(false)
		mail = p.net.FlushAnalytic(c.MaxB, c.TotalB)
	} else {
		send(true)
		mail = p.net.Flush()
	}
	idx := p.sc.linkOffs(n * n) // consumed payloads per real link [src*n + dst]
	for v := range vmsgs {
		rv := l.real(v)
		for u, msg := range vmsgs[v] {
			switch ru := l.real(u); {
			case len(msg) == 0:
			case ru == rv:
				vin[u][v] = msg
			default:
				k := idx[rv*n+ru]
				vin[u][v] = *(mail.PayloadsFrom(ru, rv)[k].(*[]E))
				idx[rv*n+ru] = k + 1
			}
		}
	}
}

// allGather makes every node learn every node's row — the "learn
// everything" primitive behind the naive engine — and returns the rows
// indexed by origin, shared and read-only. The direct transport charges
// the encoded gather's exact ledger and hands back rows itself.
func (p port[E]) allGather(rows [][]E) [][]E {
	n := p.net.N()
	if !p.wire {
		lens := make([]int64, n)
		for v, row := range rows {
			lens[v] = int64(p.f.EncodedLen(len(row)))
		}
		routing.ChargeAllGather(p.net, lens)
		return rows
	}
	vecs := make([][]clique.Word, n)
	p.net.ForEach(func(v int) { vecs[v] = p.f.encode(nil, rows[v], v) })
	all := routing.AllGather(p.net, vecs)
	out := make([][]E, n)
	p.net.ForEach(func(v int) {
		out[v] = p.reserve(v, len(rows[v]))
		p.f.decode(out[v], all[v], v)
	})
	return out
}

// outMsg is one message queued at the port's link level, under the node
// that sends it, with its length in words.
type outMsg[E any] struct {
	dst, words int32
	msg        []E
}

func byDst[E any](a, b outMsg[E]) int { return cmp.Compare(a.dst, b.dst) }

// send queues msg on the link src→dst for the port's next flush; a link
// carries at most one message per flush. msg must stay untouched until its
// receiver has read it. Safe from src's ForEach worker.
//
//cc:hotpath
func (p port[E]) send(src, dst int, msg []E) {
	ob := p.ts.outbox[p.ts.side]
	ob[src] = append(ob[src], outMsg[E]{dst: int32(dst), words: int32(p.f.EncodedLen(len(msg))), msg: msg})
}

// flush delivers everything sent since the port's last flush as one
// exchange and resolves routing.Auto for it from the links it touched:
// their word lengths (the format's EncodedLen, on either transport) go
// through routing.TwoPhaseCosts, and a two-phase choice charges both Lenzen
// phases analytically with the messages riding the second flush for free,
// exactly as routing.ExchangePayload charges a message matrix. The work is
// proportional to n plus the traffic; nothing is n×n.
//
// Each message travels as a payload: on the direct transport a pointer to
// its queue entry, on the wire transport its encoded words, which the
// receiver decodes. A delivery must be read before the port's next flush.
// Sends for that flush may interleave with the reads: the queue has two
// sides, and each flush switches to the other.
//
//cc:hotpath
func (p port[E]) flush() *clique.Mail {
	ob := p.ts.outbox[p.ts.side]
	p.ts.side ^= 1
	links, words, maxWords := p.sc.links[:0], 0, 0
	for src, msgs := range ob {
		slices.SortFunc(msgs, byDst[E])
		for _, m := range msgs {
			links = append(links, routing.Link{Src: int32(src), Dst: m.dst, Words: int64(m.words)})
			words += int(m.words)
			maxWords = max(maxWords, int(m.words))
		}
	}
	p.sc.links = links
	if p.wire {
		p.ts.live++ // link-level arrivals are never released: their windows pin the arenas
		// One arena sized up front, so no window moves while others are cut.
		buf, wins := slices.Grow(p.sc.wbuf[:0], words), p.sc.wwins[:0]
		for src, msgs := range ob {
			for _, m := range msgs {
				start := len(buf)
				buf = p.f.encode(buf, m.msg, src)
				wins = append(wins, buf[start:len(buf):len(buf)])
			}
		}
		p.sc.wbuf, p.sc.wwins = buf, wins
	}
	// Two-phase needs two rounds as soon as any word leaves its node, so
	// it can only win against a direct schedule of three rounds or more.
	var c routing.Costs
	if maxWords > 2 {
		c = routing.TwoPhaseCosts(p.net.N(), p.sc.rt, links)
	}
	twoPhase := c.TwoPhase()
	if twoPhase {
		p.net.FlushAnalytic(c.MaxA, c.TotalA)
	}
	k := 0
	for src, msgs := range ob {
		for i := range msgs {
			var w int64
			if !twoPhase {
				w = links[k].Words
			}
			var pl clique.Payload = &msgs[i].msg
			if p.wire {
				pl = &p.sc.wwins[k]
			}
			p.net.SendPayload(src, int(msgs[i].dst), w, pl)
			k++
		}
		ob[src] = msgs[:0] // the entries stay readable until this side refills
	}
	if twoPhase {
		return p.net.FlushAnalytic(c.MaxB, c.TotalB)
	}
	return p.net.Flush()
}

// each calls f for every message dst received in mail's flush, in
// increasing source order, at a cost proportional to dst's traffic rather
// than to n. Safe from dst's ForEach worker.
//
//cc:hotpath
func (p port[E]) each(mail *clique.Mail, dst int, f func(src int, msg []E)) {
	if p.wire {
		mail.EachPayload(dst, func(src int, ps []clique.Payload) { f(src, p.recvMsg(dst, *(ps[0].(*[]clique.Word)))) })
		return
	}
	mail.EachPayload(dst, func(src int, ps []clique.Payload) { f(src, *(ps[0].(*[]E))) })
}

// from returns the message dst received from src in mail's flush (nil if
// none).
//
//cc:hotpath
func (p port[E]) from(mail *clique.Mail, dst, src int) []E {
	ps := mail.PayloadsFrom(dst, src)
	switch {
	case len(ps) == 0:
		return nil
	case p.wire:
		return p.recvMsg(dst, *(ps[0].(*[]clique.Word)))
	}
	return *(ps[0].(*[]E))
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
