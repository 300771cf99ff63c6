// Package clique simulates the congested clique model: n nodes on a
// complete graph, computing in synchronous rounds, where in each round every
// ordered pair of nodes may exchange one O(log n)-bit message (one 64-bit
// word here).
//
// The simulator is phase-structured and exact: algorithms enqueue words on
// directed links and call Flush, which charges exactly
// max_{(u,v)} |queue(u,v)| rounds — the number of synchronous rounds needed
// to drain all link queues at one word per link per round. Broadcast (the
// same word from one node to all others) is a single round per word, as in
// the model. Rounds, words, and per-phase breakdowns are recorded.
//
// The simulator is split into an accounting plane and a data plane (see
// payload.go): besides materialised words, links carry opaque typed
// payloads whose wire cost is declared analytically, and both planes share
// the same per-link load maximum at Flush, so the ledger is identical
// whichever plane a protocol uses.
//
// Node-local computation is free in the model; the ForEach helper runs
// per-node computation concurrently across a worker pool, but each node may
// touch only its own state and send only from its own identifier, keeping
// runs deterministic.
//
// Networks are reusable: Reset clears all queued traffic and zeroes the
// accounting so the same network (and its worker pool) can run another
// algorithm, which is how algclique sessions amortise construction across
// operations. SetRoundLimit and SetContext rearm the per-run abort
// conditions between runs.
package clique

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// Word is one message payload: O(log n) bits in the model.
type Word = uint64

// RoundLimitError is raised (via panic) when a configured round budget is
// exceeded; it signals runaway algorithms in tests and failure-injection
// scenarios.
type RoundLimitError struct {
	Limit  int64
	Rounds int64
}

// Error implements error.
func (e *RoundLimitError) Error() string {
	return fmt.Sprintf("clique: round limit %d exceeded (at %d rounds)", e.Limit, e.Rounds)
}

// CanceledError is raised (via panic) when the context attached to the
// network via SetContext is cancelled mid-simulation. It unwraps to the
// context's error, so errors.Is(err, context.Canceled) (or
// context.DeadlineExceeded) works on the error surfaced by entry points.
type CanceledError struct {
	Cause  error
	Rounds int64
}

// Error implements error.
func (e *CanceledError) Error() string {
	return fmt.Sprintf("clique: simulation cancelled after %d rounds: %v", e.Rounds, e.Cause)
}

// Unwrap exposes the underlying context error.
func (e *CanceledError) Unwrap() error { return e.Cause }

// PhaseStat records the cost of one named algorithm phase.
type PhaseStat struct {
	Name   string
	Rounds int64
	Words  int64
}

// Stats is a snapshot of a network's accounting.
type Stats struct {
	N       int
	Rounds  int64
	Words   int64
	Flushes int64
	Phases  []PhaseStat
	// Faults ledgers every fault the armed injector fired (zero when no
	// injector is armed — see SetFaultInjector).
	Faults FaultStats
}

// Option configures a Network.
type Option func(*Network)

// WithWorkers sets the worker-pool size for ForEach. Values < 1 select
// GOMAXPROCS.
func WithWorkers(k int) Option {
	return func(c *Network) {
		if k >= 1 {
			c.workers = k
		}
	}
}

// WithRoundLimit makes the network panic with *RoundLimitError once more
// than limit rounds have been charged. Zero or negative means no limit.
func WithRoundLimit(limit int64) Option {
	return func(c *Network) { c.roundLimit = limit }
}

// Network is a simulated congested clique. It is not safe for concurrent
// use except as documented on ForEach and Send.
type Network struct {
	n          int
	dense      []link          // dense storage: flat [src*n+dst] link records (nil while sparse)
	sparse     []map[int]*link // sparse storage: per-source link records, materialised on first send
	touched    [][]int         // per-source destinations registered since the last Flush
	pinSparse  bool            // never leave the sparse storage (WithSparseLinks, n ≥ sparseLinkFloor)
	flushSeq   uint64          // monotone flush generation; never reset (stamps depend on it)
	mails      [2]*Mail        // double-buffered delivery state, alternated by Flush
	rounds     int64
	words      int64
	flushes    int64
	phases     []PhaseStat
	workers    int
	roundLimit int64
	fault      *FaultInjector
	transport  Transport
	sparseTh   float64 // planner sparse-threshold override (armed per op)
	sparseThOn bool
	ctx        context.Context
	pool       *workerPool
	engine     any // the multiplication engines' working set for this network (see EngineState)
}

// New returns a network of n ≥ 1 nodes.
func New(n int, opts ...Option) *Network {
	if n < 1 {
		panic(fmt.Sprintf("clique: network size %d < 1", n))
	}
	c := &Network{
		n:       n,
		workers: runtime.GOMAXPROCS(0),
	}
	for _, o := range opts {
		o(c)
	}
	if n >= sparseLinkFloor {
		c.pinSparse = true
	}
	// Every network is born with sparse link storage: link records
	// materialise on demand, so construction is proportional to the nodes,
	// never to the n² links. Below sparseLinkFloor the first flush that
	// shows dense traffic moves it to flat storage (see sparselinks.go).
	c.newborn()
	return c
}

// newborn installs the empty sparse storage New and Trim leave behind.
func (c *Network) newborn() {
	c.dense = nil
	c.sparse = make([]map[int]*link, c.n)
	c.touched = make([][]int, c.n)
}

// N returns the number of nodes.
func (c *Network) N() int { return c.n }

// Rounds returns the total rounds charged so far.
func (c *Network) Rounds() int64 { return c.rounds }

// Words returns the total words transmitted on links so far (local
// self-delivery is free and uncounted).
func (c *Network) Words() int64 { return c.words }

// Stats returns a copy of the accounting snapshot.
func (c *Network) Stats() Stats {
	ph := make([]PhaseStat, len(c.phases))
	copy(ph, c.phases)
	st := Stats{N: c.n, Rounds: c.rounds, Words: c.words, Flushes: c.flushes, Phases: ph}
	if c.fault != nil {
		st.Faults = c.fault.Stats()
	}
	return st
}

// SetRoundLimit rearms (or, with limit ≤ 0, disarms) the round budget for
// the next run. Unlike the WithRoundLimit construction option it can be
// changed between runs on a reused network.
func (c *Network) SetRoundLimit(limit int64) { c.roundLimit = limit }

// SetFaultInjector arms (or, with nil, disarms) a fault injector for
// subsequent runs: like the round limit it survives Reset, so sessions arm
// it per operation. A disarmed network pays one nil check per Send/Flush
// and behaves — and accounts — exactly as before the fault plane existed.
func (c *Network) SetFaultInjector(fi *FaultInjector) { c.fault = fi }

// FaultInjector returns the armed injector, if any.
func (c *Network) FaultInjector() *FaultInjector { return c.fault }

// SetSparseThreshold arms a density-aware planning threshold for
// algorithms running on this network: like SetRoundLimit it survives
// Reset, and sessions arm it per operation so every matrix product an
// algorithm performs — however deep in the call tree it resolves its plan
// — honours the session's WithSparseThreshold setting. The planner (see
// ccmm's census) reads it through SparseThreshold; a network never armed
// reports ok = false and the planner uses its default.
func (c *Network) SetSparseThreshold(t float64) { c.sparseTh, c.sparseThOn = t, true }

// SparseThreshold returns the armed planning threshold, if any.
func (c *Network) SparseThreshold() (t float64, ok bool) { return c.sparseTh, c.sparseThOn }

// EngineState returns whatever SetEngineState stored, nil when nothing is.
// The slot is how the working set of the layer above — ccmm's Scratch, which
// this package cannot name — belongs to the network it serves: every product
// on the network finds the same one, and it lives exactly as long as the
// network's own recycled capacity (Trim and Close drop it with the rest).
func (c *Network) EngineState() any { return c.engine }

// SetEngineState stores the engines' working set for this network.
func (c *Network) SetEngineState(s any) { c.engine = s }

// SetContext attaches a cancellation context to the network: once ctx is
// cancelled, the next charged cost panics with *CanceledError (recovered by
// the algclique entry points into an error). A nil ctx detaches. The check
// happens at synchronous-round boundaries (Flush/Broadcast), so cancellation
// latency is one communication phase.
func (c *Network) SetContext(ctx context.Context) { c.ctx = ctx }

// linkRetainCap is the high-water mark for per-link retained capacity:
// Reset releases any queue or delivery buffer whose capacity exceeds it
// (in words), so one traffic spike does not pin its peak footprint for the
// life of a long-running session. Steady-state traffic on this library's
// algorithms stays far below it, so warm capacity survives Reset.
const linkRetainCap = 1 << 14

// payloadRetainCap is the analogous bound for payload-reference buffers
// (entries, not words — each entry is one boxed reference).
const payloadRetainCap = 1 << 10

// trimWords truncates a word buffer, releasing it entirely above the
// high-water capacity.
func trimWords(b []Word) []Word {
	if cap(b) > linkRetainCap {
		return nil
	}
	return b[:0]
}

// trimPayloads truncates a payload buffer (dropping the references it
// held), releasing it entirely above the high-water capacity.
func trimPayloads(b []Payload) []Payload {
	if cap(b) > payloadRetainCap {
		return nil
	}
	for i := range b {
		b[i] = nil
	}
	return b[:0]
}

// Reset drops all queued traffic and zeroes rounds, words, flushes, and
// phases so the network can run a fresh algorithm. The clique size, worker
// pool, configured limits, transport, and the recycled queue/mailbox
// capacity are kept (sessions reuse networks precisely to keep that
// capacity warm) — except buffers above the linkRetainCap high-water mark,
// which are released (here and at delivery time) so spikes do not pin peak
// memory; the per-run context is detached. Mail values from before the
// Reset are invalidated, and the payload references they held are
// dropped. The walk is proportional to the traffic actually pending or
// delivered, not to the n² links.
func (c *Network) Reset() {
	c.DropPending()
	c.rounds, c.words, c.flushes = 0, 0, 0
	c.phases = c.phases[:0]
	c.ctx = nil
}

// DropPending discards all queued-but-undelivered traffic and invalidates
// outstanding Mail without touching the accounting. It is the recovery
// primitive for re-running an operation whose previous attempt aborted
// mid-schedule (an injected fault, a round limit): the stale half-exchange
// must not leak into the retry's first Flush, but the aborted attempt's
// cost legitimately stays on the ledger. Reset builds on it.
func (c *Network) DropPending() {
	for src, list := range c.touched {
		for _, dst := range list {
			l := c.at(src, dst)
			l.q = trimWords(l.q)
			l.pq = trimPayloads(l.pq)
			l.load = 0
		}
		c.touched[src] = list[:0]
	}
	// Advance the flush generation: the cleared links' touch stamps were
	// armed for seq+1, and without this bump a post-Reset send on such a
	// link would be deduplicated as already registered and silently
	// dropped by the next Flush.
	c.flushSeq++
	// End both mails' lifetimes: the payload references (and spiked word
	// buffers) they hold are dropped and no stamp matches any more, so
	// everything reads as undelivered.
	for _, mail := range c.mails {
		if mail != nil {
			mail.release()
			mail.id = 0
		}
	}
}

// Trim returns the network to its newborn state: all recycled queue,
// mailbox, and payload capacity is released regardless of size and, below
// sparseLinkFloor, the flat link records go with it — the network is back
// on sparse storage and the next dense traffic switches it again. It is
// the aggressive form of Reset's high-water trimming, for callers parking a
// network they may not use again soon; it costs O(n) and leaves the
// accounting untouched. The engines' working set (EngineState) is let go as
// well and rebuilds on the next product.
func (c *Network) Trim() {
	c.engine = nil
	c.mails = [2]*Mail{}
	c.newborn()
	c.flushSeq++ // invalidate the discarded links' touch stamps (see DropPending)
}

// Phase begins a named accounting phase; subsequent costs are attributed to
// it until the next call.
func (c *Network) Phase(name string) {
	c.phases = append(c.phases, PhaseStat{Name: name})
}

func (c *Network) charge(rounds, words int64) {
	if c.ctx != nil {
		if err := c.ctx.Err(); err != nil {
			panic(&CanceledError{Cause: err, Rounds: c.rounds})
		}
	}
	c.rounds += rounds
	c.words += words
	if len(c.phases) > 0 {
		p := &c.phases[len(c.phases)-1]
		p.Rounds += rounds
		p.Words += words
	}
	if c.fault != nil {
		c.fault.noteRounds(c.rounds)
	}
	if c.roundLimit > 0 && c.rounds > c.roundLimit {
		panic(&RoundLimitError{Limit: c.roundLimit, Rounds: c.rounds})
	}
}

func (c *Network) checkNode(v int) {
	if v < 0 || v >= c.n {
		panic(fmt.Sprintf("clique: node %d out of range [0, %d)", v, c.n))
	}
}

// open is every send's precondition: both endpoints exist and src has not
// fail-stopped.
func (c *Network) open(src, dst int) {
	c.checkNode(src)
	c.checkNode(dst)
	if c.fault != nil {
		c.fault.checkSend(src, c.rounds)
	}
}

// Send enqueues one word from src to dst for the next Flush. Sending to
// oneself is legal and free. Send may be called concurrently from ForEach
// workers provided each worker sends only from its own node: the link
// records and touched lists are partitioned by source (see linkFor), so
// such senders never share state.
//
//cc:hotpath
func (c *Network) Send(src, dst int, w Word) {
	c.open(src, dst)
	l := c.linkFor(src, dst)
	l.q = append(l.q, w)
}

// SendVec enqueues a vector of words from src to dst (copied).
//
//cc:hotpath
func (c *Network) SendVec(src, dst int, ws []Word) {
	c.open(src, dst)
	if len(ws) == 0 {
		return
	}
	l := c.linkFor(src, dst)
	l.q = append(l.q, ws...)
}

// SendOwnedVec enqueues a vector of words from src to dst, taking
// ownership of ws: when the link queue is empty the vector is adopted as
// the queue's backing array without copying (delivery then copies once at
// Flush, like all queued traffic), and the network retains and reuses the
// array afterwards. The caller must not read or write ws after the call.
// It is the zero-copy enqueue path for buffers the caller builds per send
// and then relinquishes (per-link concatenations).
//
//cc:hotpath
func (c *Network) SendOwnedVec(src, dst int, ws []Word) {
	c.open(src, dst)
	if len(ws) == 0 {
		return
	}
	l := c.linkFor(src, dst)
	if len(l.q) > 0 {
		l.q = append(l.q, ws...)
	} else {
		l.q = ws
	}
}

// Mail is the result of a Flush: all words and payloads delivered in this
// exchange, indexed by destination and source, in FIFO order per link.
// Each destination keeps a mailbox of entries in ascending source order,
// one per delivering source, so a receive walk visits exactly the sources
// that delivered.
//
// Mail is double-buffered by the network: a Mail and its vectors are valid
// until the second-next Flush on the same network (and until Reset), which
// reuses the same mailbox entries and delivery buffers. Consume a flush's
// delivery before the one after next — every phase-structured algorithm
// does so naturally — or copy the words out. Mailboxes are stamp-gated per
// destination rather than cleared, so an idle destination reads as empty
// without any per-flush sweep.
type Mail struct {
	id    uint64        // generation of the Flush that filled this mail
	box   [][]mailEntry // per-destination deliveries, ascending source order
	stamp []uint64      // generation each destination's box was filled
	dirty []int         // destinations the last fill touched
}

// mailEntry is one delivery (src, words, payloads) in a destination's
// mailbox. Entries are revived in place across flushes so their word and
// payload buffers recycle.
type mailEntry struct {
	src int
	ws  []Word
	ps  []Payload
}

func newMail(n int) *Mail {
	return &Mail{box: make([][]mailEntry, n), stamp: make([]uint64, n)}
}

// release drops the payload references (and spiked word buffers) the
// mailboxes hold — called when the mail's two-flush lifetime ends (refill
// or DropPending), so delivered data is pinned no longer than the contract
// promises. It walks only the destinations the last fill touched; the
// entries themselves stay, capacity warm, gated stale by the stamp until
// the next fill revives them.
func (m *Mail) release() {
	for _, dst := range m.dirty {
		box := m.box[dst]
		for i := range box {
			box[i].ps = trimPayloads(box[i].ps)
			if cap(box[i].ws) > linkRetainCap {
				box[i].ws = nil
			}
		}
	}
	m.dirty = m.dirty[:0]
}

// entry returns dst's delivery from src, nil if none. The probe at index
// src hits whenever every lower source delivered to dst — a dense
// exchange; otherwise a binary search over the entries up to it (sources
// ascend, so src's entry cannot sit above index src) resolves it.
//
//cc:hotpath
func (m *Mail) entry(dst, src int) *mailEntry {
	if m.stamp[dst] != m.id {
		return nil
	}
	box := m.box[dst]
	if len(box) > src+1 {
		box = box[:src+1]
	}
	if len(box) == 0 {
		return nil
	}
	if e := &box[len(box)-1]; e.src == src {
		return e
	}
	lo, hi := 0, len(box)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if box[mid].src < src {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(box) && box[lo].src == src {
		return &box[lo]
	}
	return nil
}

// From returns the words dst received from src (nil if none).
//
//cc:hotpath
func (m *Mail) From(dst, src int) []Word {
	if e := m.entry(dst, src); e != nil && len(e.ws) > 0 {
		return e.ws
	}
	return nil
}

// Each calls f for every non-empty (src, words) pair delivered to dst, in
// increasing source order.
//
//cc:hotpath
func (m *Mail) Each(dst int, f func(src int, words []Word)) {
	if m.stamp[dst] != m.id {
		return
	}
	for i := range m.box[dst] {
		if e := &m.box[dst][i]; len(e.ws) > 0 {
			f(e.src, e.ws)
		}
	}
}

// Flush delivers every queued word and payload. The charged cost is the
// maximum link load — per link, the queued words plus the analytic word
// load declared by SendPayload — delivered one word per link per round in
// parallel across links, exactly as the synchronous model allows. The two
// planes share one ledger, so a protocol charges the same rounds and words
// whichever plane carries it.
//
// Delivery is allocation-free in steady state and proportional to the
// links actually used: the network tracks touched links, so a flush walks
// its own traffic, not all n² pairs. The network owns two Mail buffers
// used alternately, each with persistent mailbox entries; words move from
// the (equally persistent) link queues by copy, payloads move as
// references. See Mail for the resulting lifetime contract.
//
//cc:hotpath
func (c *Network) Flush() *Mail {
	return c.FlushAnalytic(0, 0)
}

// FlushAnalytic is Flush with an additional analytically-described load:
// the flush behaves as if links also carried traffic with maximum per-link
// load maxLoad and totalWords words in total (the caller computed both
// from a schedule's per-link loads without registering them link by link).
// The charged cost is max(maxLoad, observed per-link maximum) rounds and
// the sum of both totals — exactly what declaring the same loads through
// SendPayload and calling Flush would charge, at O(1) instead of O(links).
// The walk is over the touched links only; each destination's mailbox
// receives its entries in ascending source order because the outer loop
// ascends sources.
//
//cc:hotpath
func (c *Network) FlushAnalytic(maxLoad, totalWords int64) *Mail {
	n := c.n
	if c.fault != nil {
		c.fault.checkFlush(c.flushes + 1)
	}
	mail := c.mails[c.flushSeq&1]
	if mail == nil {
		mail = newMail(n) //cc:hotalloc-ok(lazy one-time mailbox init)
		c.mails[c.flushSeq&1] = mail
	}
	// This mail's previous deliveries reach the end of their two-flush
	// lifetime here; drop the references they pinned.
	mail.release()
	seq := c.flushSeq + 1
	mail.id = seq
	total := totalWords
	// Evaluated once per flush: an armed injector whose plan cannot touch
	// deliveries right now (inert probabilities, exhausted MaxFaults)
	// costs nothing on the per-link walk below.
	faultLinks := c.fault != nil && c.fault.linkActive()
	links := 0
	for src := 0; src < n; src++ {
		list := c.touched[src]
		links += len(list)
		for _, dst := range list {
			l := c.at(src, dst)
			load := int64(len(l.q)) + l.load
			l.load = 0
			if len(l.q) > 0 || len(l.pq) > 0 {
				box := mail.box[dst]
				if mail.stamp[dst] != seq {
					box = box[:0]
					mail.stamp[dst] = seq
					mail.dirty = append(mail.dirty, dst) //cc:hotalloc-ok(dirty-list growth; steady state reuses the array)
				}
				var e *mailEntry
				if len(box) < cap(box) {
					box = box[:len(box)+1]
					e = &box[len(box)-1] // revive: keep the buffers it held
					e.src = src
				} else {
					box = append(box, mailEntry{src: src}) //cc:hotalloc-ok(mailbox growth; steady state revives entries)
					e = &box[len(box)-1]
				}
				mail.box[dst] = box
				e.ws = append(e.ws[:0], l.q...) //cc:hotalloc-ok(capacity growth; steady state reuses the buffer)
				if len(l.q) > linkRetainCap {
					l.q = nil // spiked queue released now; the mail copy at the next release
				} else {
					l.q = l.q[:0] // the queue keeps its own array
				}
				if len(l.pq) > 0 {
					e.ps = append(e.ps[:0], l.pq...) //cc:hotalloc-ok(capacity growth; steady state reuses the buffer)
					for k := range l.pq {
						l.pq[k] = nil // release the queued references
					}
					if cap(l.pq) > payloadRetainCap {
						l.pq = nil
					} else {
						l.pq = l.pq[:0]
					}
				} else {
					e.ps = trimPayloads(e.ps)
				}
				// Fault application point: perturb what was just delivered
				// on this link. The charge reflects what was *sent*, so the
				// ledger stays deterministic; only delivered data changes.
				if faultLinks && src != dst {
					c.fault.link(e, src, dst, seq)
				}
			}
			if src != dst && load > 0 {
				if load > maxLoad {
					maxLoad = load
				}
				total += load
			}
		}
		c.touched[src] = list[:0]
	}
	c.flushSeq = seq
	c.flushes++
	if c.dense == nil && !c.pinSparse && links*denseSwitchDiv >= n*n {
		c.switchDense()
	}
	if c.fault != nil {
		maxLoad += c.fault.straggle(seq)
	}
	c.charge(maxLoad, total)
	return mail
}

// PendingWords reports the number of words currently queued from src —
// materialised words plus the analytic load of pending payloads
// (diagnostics and tests). Anything pending was queued since the last
// flush, so the touched list covers it.
func (c *Network) PendingWords(src int) int {
	c.checkNode(src)
	total := 0
	for _, dst := range c.touched[src] {
		if dst != src {
			l := c.at(src, dst)
			total += len(l.q) + int(l.load)
		}
	}
	return total
}

// Broadcast performs one broadcast round per word: node v transmits
// vals[v] to every other node; all nodes receive all vectors. The cost is
// max_v len(vals[v]) rounds (each round every node broadcasts one word).
// The returned slice is indexed by the broadcasting node; receivers must
// treat the shared slices as read-only.
func (c *Network) Broadcast(vals [][]Word) [][]Word {
	if len(vals) != c.n {
		panic(fmt.Sprintf("clique: Broadcast wants %d vectors, got %d", c.n, len(vals)))
	}
	var maxLen, total int64
	for _, v := range vals {
		if l := int64(len(v)); l > maxLen {
			maxLen = l
		}
		total += int64(len(v)) * int64(c.n-1)
	}
	c.charge(maxLen, total)
	out := make([][]Word, c.n)
	copy(out, vals)
	return out
}

// BroadcastWord is Broadcast for a single word per node: one round.
func (c *Network) BroadcastWord(vals []Word) []Word {
	if len(vals) != c.n {
		panic(fmt.Sprintf("clique: BroadcastWord wants %d values, got %d", c.n, len(vals)))
	}
	c.charge(1, int64(c.n)*int64(c.n-1))
	out := make([]Word, c.n)
	copy(out, vals)
	return out
}

// Any is the distributed OR of one bit per node: node v holds pred(v), and
// one broadcast round tells every node whether some node's bit is set. It
// charges exactly what BroadcastWord charges — one round, n(n−1) words —
// and allocates nothing, since no node needs the other bits, only their OR.
// pred is each node's local test, evaluated in node order; it must not
// touch the network, and once one node's bit is set the rest are not
// evaluated.
func (c *Network) Any(pred func(v int) bool) bool {
	c.charge(1, int64(c.n)*int64(c.n-1))
	for v := 0; v < c.n; v++ {
		if pred(v) {
			return true
		}
	}
	return false
}

// poolTask is one unit of fan-out work handed to a persistent worker.
type poolTask struct {
	f func(v int)
	v int
}

// panicCell carries the first panic of a fan-out back to the goroutine
// that waits on it. Without it a panicking task — a decode tripping over
// fault-garbled words, an injected chaos panic — would kill the whole
// process from a pool goroutine instead of unwinding the caller, and no
// recovery layer above could ever see it.
type panicCell struct {
	mu  sync.Mutex
	val any
	set bool
}

func (p *panicCell) capture(v any) {
	p.mu.Lock()
	if !p.set {
		p.set, p.val = true, v
	}
	p.mu.Unlock()
}

// rethrow re-raises the captured panic, if any, on the calling goroutine,
// and empties the cell for the next fan-out.
func (p *panicCell) rethrow() {
	p.mu.Lock()
	v, set := p.val, p.set
	p.val, p.set = nil, false
	p.mu.Unlock()
	if set {
		panic(v)
	}
}

// workerPool is a set of persistent goroutines fed over a channel, so a
// reused network pays goroutine startup once rather than per ForEach. Its
// owner runs one fan-out at a time (a Network is single-caller and fan-outs
// never nest), so the pool keeps the one fan-out's wait group and panic
// cell itself and a fan-out allocates nothing.
type workerPool struct {
	tasks chan poolTask
	stop  sync.Once
	wg    sync.WaitGroup
	pan   panicCell
}

// runTask executes one task, capturing a panic into the fan-out's cell so
// the waiter can re-raise it; wg.Done always runs, so a panicking task can
// never deadlock its fan-out.
func (p *workerPool) runTask(t poolTask) {
	defer func() {
		if r := recover(); r != nil {
			p.pan.capture(r)
		}
		p.wg.Done()
	}()
	t.f(t.v)
}

func newWorkerPool(workers int) *workerPool {
	p := &workerPool{tasks: make(chan poolTask, workers)}
	for w := 0; w < workers; w++ {
		go func() {
			for t := range p.tasks {
				p.runTask(t)
			}
		}()
	}
	return p
}

// run fans f(0), …, f(tasks-1) out to the workers, waits for all of them,
// and re-raises the first panic among them on the caller.
func (p *workerPool) run(tasks int, f func(int)) {
	p.wg.Add(tasks)
	for t := 0; t < tasks; t++ {
		p.tasks <- poolTask{f: f, v: t}
	}
	p.wg.Wait()
	p.pan.rethrow()
}

// shutdown stops the workers; safe to call more than once.
func (p *workerPool) shutdown() { p.stop.Do(func() { close(p.tasks) }) }

// ForEach runs f(v) for every node concurrently on the worker pool and
// waits for completion. f must restrict itself to node v's state and may
// send only from v. The pool is started lazily on first use and persists
// across runs until Close (a cleanup also stops it when the network is
// garbage collected, so unclosed networks do not leak goroutines forever).
// A ForEach on a warm network allocates nothing of its own.
func (c *Network) ForEach(f func(v int)) {
	c.RunLocal(c.n, f)
}

// RunLocal runs f(0), …, f(tasks-1) concurrently on the same persistent
// worker pool ForEach uses and waits for completion. Unlike ForEach the
// task count is arbitrary — it is the fan-out primitive for *local*
// compute (parallel kernels, bulk packing), not per-node simulation work,
// so tasks carry no node identity and must not touch the network. The
// WithWorkers setting governs the concurrency exactly as for ForEach.
//
// RunLocal must not be called from inside a ForEach or RunLocal task: the
// pool's workers are already occupied and the nested wait can deadlock.
func (c *Network) RunLocal(tasks int, f func(task int)) {
	workers := min(c.workers, c.n)
	if workers <= 1 || tasks <= 1 {
		for t := 0; t < tasks; t++ {
			f(t)
		}
		return
	}
	if c.pool == nil {
		c.pool = newWorkerPool(workers)
		runtime.AddCleanup(c, func(p *workerPool) { p.shutdown() }, c.pool)
	}
	c.pool.run(tasks, f)
}

// Close releases the persistent worker pool and the engines' working set.
// The network remains usable — a later ForEach starts a fresh pool, a later
// product a fresh working set — but sessions call Close when done so idle
// workers do not outlive them.
func (c *Network) Close() {
	c.engine = nil
	if c.pool != nil {
		c.pool.shutdown()
		c.pool = nil
	}
}

// LocalPool is a standalone worker pool with the RunLocal contract of
// Network, for contexts that have local compute to fan out but no network.
// It shares the workerPool machinery: persistent goroutines started lazily
// on first use.
type LocalPool struct {
	workers int
	pool    *workerPool
}

// NewLocalPool returns a pool of k workers; k < 1 selects GOMAXPROCS.
func NewLocalPool(k int) *LocalPool {
	if k < 1 {
		k = runtime.GOMAXPROCS(0)
	}
	return &LocalPool{workers: k}
}

// RunLocal runs f(0), …, f(tasks-1) concurrently and waits for completion,
// with the same nesting rule as Network.RunLocal.
func (p *LocalPool) RunLocal(tasks int, f func(task int)) {
	if p.workers <= 1 || tasks <= 1 {
		for t := 0; t < tasks; t++ {
			f(t)
		}
		return
	}
	if p.pool == nil {
		p.pool = newWorkerPool(p.workers)
		runtime.AddCleanup(p, func(wp *workerPool) { wp.shutdown() }, p.pool)
	}
	p.pool.run(tasks, f)
}

// Close releases the pool's workers; the pool remains usable (a later
// RunLocal starts fresh workers).
func (p *LocalPool) Close() {
	if p.pool != nil {
		p.pool.shutdown()
		p.pool = nil
	}
}
