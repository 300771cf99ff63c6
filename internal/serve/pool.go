package serve

import (
	"errors"
	"sync"

	cc "github.com/algebraic-clique/algclique"
)

// ErrPoolClosed is returned by Get after the pool is closed.
var ErrPoolClosed = errors.New("serve: session pool is closed")

// sessionBytes estimates the live heap of a warm session for clique size n:
// its networks' per-link queue and mailbox capacity and, on each network,
// the engines' working set — message queues and arenas, block operands
// and products of every element type it has multiplied in, and the free
// list of row matrices — all of which outlive the operation that grew
// them. Measured
// on a session that has served each of the six ops once (live HeapAlloc,
// bytes per n² in brackets): n = 16 0.29 MB [1 121], n = 32 1.68 MB
// [1 643], n = 64 4.49 MB [1 096], n = 144 25.0 MB [1 205]; the estimate
// is 1 350 bytes per link, near the middle of the factor-two band that
// table allows. TestSessionFootprintEstimate holds it within a factor of
// two of every row. The budget is a control knob driving eviction order,
// not an accounting guarantee.
func sessionBytes(n int) int64 { return 1350 * int64(n) * int64(n) }

// trimmedBytes is the post-Trim residual. Trim releases the networks' link
// state and, with it, their working sets (everything rebuilds lazily on the
// next operation); what survives — the session, its O(n) network shells,
// the worker pool, the memoised plan — measured 4.7 KB at n = 16, 10.5 KB
// at 32, 19.0 KB at 64 and 23.1 KB at 144.
func trimmedBytes(n int) int64 { return 128*int64(n) + 1<<12 }

// poolEntry is one cached session with its LRU stamp.
type poolEntry struct {
	sess    *cc.Clique
	n       int
	used    uint64 // LRU sequence number of the last Get/Put
	trimmed bool   // Trim released its working set; it regrows on use
}

// Pool caches warm sessions per clique size so the per-size setup the
// session API amortises — networks, memoised plans, scratch pools, operand
// buffers — is paid once per (size, lifetime of the cache) instead of per
// request. Eviction is LRU across all sizes under a configurable memory
// budget, in two tiers: an over-budget pool first Trims idle sessions
// (cheap to revive — the session survives, its buffers rebuild lazily),
// and only then Closes and drops whole sessions. In-use sessions are
// never touched; the budget can therefore be exceeded transiently while
// every session is checked out.
//
// Pool is safe for concurrent use. Get/Put never block on session work:
// session.Trim serialises against in-flight operations via the session's
// own mutex, and the pool only Trims idle (checked-in) sessions.
type Pool struct {
	mu       sync.Mutex
	budget   int64
	opts     []cc.SessionOption
	idle     map[int][]*poolEntry
	inUse    map[*cc.Clique]*poolEntry
	seq      uint64
	resid    int64 // estimated bytes of all cached sessions (idle + in use)
	closed   bool
	hits     int64
	misses   int64
	evicted  int64
	trims    int64
	discards int64
}

// PoolStats is a snapshot of the pool's accounting.
type PoolStats struct {
	// Hits and Misses count Get calls served from the cache vs by
	// building a fresh session.
	Hits, Misses int64
	// Evictions counts sessions closed under memory pressure; Trims
	// counts idle sessions trimmed under pressure (tier one).
	Evictions, Trims int64
	// Discards counts checked-out sessions the serving layer declared
	// poisoned (an operation panicked on them) and Discard closed instead
	// of re-caching.
	Discards int64
	// Idle and InUse count currently cached sessions.
	Idle, InUse int
	// FootprintBytes is the pool's estimated resident footprint;
	// BudgetBytes the configured budget.
	FootprintBytes, BudgetBytes int64
}

// HitRate is Hits/(Hits+Misses), 0 before the first Get.
func (s PoolStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// NewPool builds a session pool with the given memory budget in bytes
// (≤ 0 means unbounded) whose sessions are constructed with opts.
func NewPool(budget int64, opts ...cc.SessionOption) *Pool {
	return &Pool{
		budget: budget,
		opts:   opts,
		idle:   make(map[int][]*poolEntry),
		inUse:  make(map[*cc.Clique]*poolEntry),
	}
}

// Get checks out a session for clique size n, reviving the most recently
// used idle one (hit) or building a fresh session (miss). The caller must
// return it with Put.
func (p *Pool) Get(n int) (sess *cc.Clique, hit bool, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, ErrPoolClosed
	}
	p.seq++
	if stack := p.idle[n]; len(stack) > 0 {
		e := stack[len(stack)-1]
		p.idle[n] = stack[:len(stack)-1]
		if e.trimmed {
			// The working set regrows as soon as the session runs an op.
			p.resid += sessionBytes(n) - trimmedBytes(n)
			e.trimmed = false
		}
		e.used = p.seq
		p.inUse[e.sess] = e
		p.hits++
		p.mu.Unlock()
		return e.sess, true, nil
	}
	p.misses++
	s, err := cc.NewClique(n, p.opts...)
	if err != nil {
		p.mu.Unlock()
		return nil, false, err
	}
	e := &poolEntry{sess: s, n: n, used: p.seq}
	p.inUse[s] = e
	p.resid += sessionBytes(n)
	p.shrinkLocked()
	p.mu.Unlock()
	return s, false, nil
}

// Put checks a session back in. Sessions the pool does not know (or that
// arrive after Close) are closed instead of cached.
func (p *Pool) Put(sess *cc.Clique) {
	p.mu.Lock()
	e, ok := p.inUse[sess]
	if !ok || p.closed {
		if ok {
			delete(p.inUse, sess)
		}
		p.mu.Unlock()
		if ok {
			sess.Close()
		}
		return
	}
	delete(p.inUse, sess)
	p.seq++
	e.used = p.seq
	p.idle[e.n] = append(p.idle[e.n], e)
	p.shrinkLocked()
	p.mu.Unlock()
}

// Discard removes a checked-out session from the pool permanently and
// closes it — the anti-Put, for sessions poisoned by a panic escaping an
// operation: their internal state cannot be trusted, so they must never
// serve another request. Discarding a session the pool does not know
// still closes it but leaves the accounting untouched.
func (p *Pool) Discard(sess *cc.Clique) {
	if sess == nil {
		return
	}
	p.mu.Lock()
	e, known := p.inUse[sess]
	if known {
		delete(p.inUse, sess)
		// In-use entries are never in the trimmed state (Get clears it).
		p.resid -= sessionBytes(e.n)
		p.discards++
	}
	p.mu.Unlock()
	sess.Close()
}

// Shrink enforces the budget now: Trim idle sessions LRU-first, then
// evict. Serving paths shrink on every Get/Put; a janitor goroutine may
// also call this periodically.
func (p *Pool) Shrink() {
	p.mu.Lock()
	p.shrinkLocked()
	p.mu.Unlock()
}

// shrinkLocked brings the estimated footprint back under budget (mu
// held). Tier one trims the least recently used idle sessions; tier two
// closes them. session.Trim is safe here even if a stale caller raced a
// Put: the session's own mutex serialises Trim against operations.
func (p *Pool) shrinkLocked() {
	if p.budget <= 0 {
		return
	}
	for p.resid > p.budget {
		if e := p.lruIdleLocked(false); e != nil {
			e.sess.Trim()
			e.trimmed = true
			p.resid -= sessionBytes(e.n) - trimmedBytes(e.n)
			p.trims++
			continue
		}
		e := p.lruIdleLocked(true)
		if e == nil {
			return // everything left is in use; transiently over budget
		}
		p.dropLocked(e)
		e.sess.Close()
		p.evicted++
	}
}

// lruIdleLocked returns the least recently used idle entry — skipping
// already-trimmed ones unless trimmedToo is set — or nil.
func (p *Pool) lruIdleLocked(trimmedToo bool) *poolEntry {
	var lru *poolEntry
	for _, stack := range p.idle {
		for _, e := range stack {
			if !trimmedToo && e.trimmed {
				continue
			}
			if lru == nil || e.used < lru.used {
				lru = e
			}
		}
	}
	return lru
}

// dropLocked removes an idle entry from the cache and its footprint from
// the estimate (mu held).
func (p *Pool) dropLocked(e *poolEntry) {
	stack := p.idle[e.n]
	for i, cand := range stack {
		if cand == e {
			p.idle[e.n] = append(stack[:i], stack[i+1:]...)
			break
		}
	}
	if e.trimmed {
		p.resid -= trimmedBytes(e.n)
	} else {
		p.resid -= sessionBytes(e.n)
	}
}

// Stats returns a snapshot of the pool's accounting.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	idle := 0
	for _, stack := range p.idle {
		idle += len(stack)
	}
	return PoolStats{
		Hits: p.hits, Misses: p.misses,
		Evictions: p.evicted, Trims: p.trims,
		Discards: p.discards,
		Idle:     idle, InUse: len(p.inUse),
		FootprintBytes: p.resid, BudgetBytes: p.budget,
	}
}

// Close closes every idle session and marks the pool closed: further Gets
// fail, and sessions still checked out are closed on Put.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	var toClose []*cc.Clique
	for n, stack := range p.idle {
		for _, e := range stack {
			toClose = append(toClose, e.sess)
		}
		delete(p.idle, n)
	}
	p.resid = 0
	p.mu.Unlock()
	for _, s := range toClose {
		s.Close()
	}
}
