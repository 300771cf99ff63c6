package clique

// This file is the simulator's link storage: one link record type, kept in
// one of two forms chosen by the traffic.
//
// A link record is 64 B — the word queue, the payload queue, the analytic
// load and the touch generation. Flat storage holds all n² of them in one
// array indexed src*n+dst: a send is an index, and the dense engines, whose
// traffic uses most links, want exactly that. But flat storage costs
// 64 B × n² whatever the traffic — 4.2 MB at n = 256, 256 MB at n = 2000 —
// and traffic that uses a vanishing share of the links (the CSR tile engine
// moves Θ(ρ) words over 0.1–3 % of them) pays for n² and uses none of it.
// Sparse storage keeps per-source maps of records materialised on first
// send instead. So the form follows the traffic, not n: every network is
// born sparse and, below sparseLinkFloor nodes, moves itself — once, one
// way — to flat storage at the end of the first flush that touched at least
// 1/denseSwitchDiv of the n² links (switchDense); Trim returns it to the
// newborn form. At sparseLinkFloor and above, and under WithSparseLinks, it
// stays sparse.
//
// Only the storage differs. linkFor (the send side, which registers a link
// with the upcoming flush) and at (the flush side) are the only code that
// knows which form a network is in; the flush walk, the mailboxes it fills,
// DropPending and the fault plane are one body over link records and mail
// entries, so the ledger — rounds, words, flushes, phase attribution —,
// every delivery and every injected fault are identical in the two forms
// (TestSparseLinksLedgerParity and TestSparseLinksFaultParity pin this
// differentially).

// sparseLinkFloor is the node count from which a network never leaves
// sparse storage: flat link records are 1 GB there, more than any traffic
// the simulator carries justifies. Below it the traffic selects the form.
const sparseLinkFloor = 4096

// denseSwitchDiv sets the traffic that moves a network to flat storage:
// one flush touching n²/denseSwitchDiv links or more. The two traffic
// classes sit apart on that axis: every dense-engine product has such a
// flush among its first exchanges (0.06–1.0 of the links at n ∈ {16…1000},
// either transport), while the tile engines on sparse inputs touch
// 0.0004–0.027 of them per flush at n ∈ {64…2000} (tables in DESIGN.md,
// "Link state follows traffic").
const denseSwitchDiv = 16

// WithSparseLinks pins sparse link storage regardless of size and traffic,
// so tests can differentially compare the two forms at small n.
func WithSparseLinks() Option {
	return func(c *Network) { c.pinSparse = true }
}

// SparseLinks reports whether the network keeps sparse link storage right
// now (a network below sparseLinkFloor leaves it on its first dense flush).
func (c *Network) SparseLinks() bool { return c.dense == nil }

// switchDense moves the network to flat storage. It runs at the end of a
// flush, when every link queue is drained and every touched list empty, so
// nothing migrates: the sparse records are dropped and the flat ones start
// idle. Both forms deliver into the same mailboxes, so the two mails alive
// across the switch are untouched.
func (c *Network) switchDense() {
	c.dense = make([]link, c.n*c.n) // flushSeq ≥ 1 here, so a zero stamp never matches
	c.sparse = nil
}

// link is one directed link's state in either storage form: the words and
// payloads queued for the next flush, the analytic load declared for them,
// and the flush generation that last registered the link with its source's
// touched list.
type link struct {
	q    []Word
	pq   []Payload
	load int64
	seq  uint64
}

// linkFor returns (creating it in sparse storage if needed) the link
// src→dst and registers it with the upcoming flush; the stamp deduplicates,
// so each link appears in its source's touched list once per flush cycle.
// The records, maps and touched lists are partitioned by source, so
// concurrent ForEach senders — each restricted to its own source, per the
// Send contract — never share state and no locking is needed.
//
//cc:hotpath
func (c *Network) linkFor(src, dst int) *link {
	var l *link
	if c.dense != nil {
		l = &c.dense[src*c.n+dst]
	} else {
		m := c.sparse[src]
		if m == nil {
			m = make(map[int]*link) //cc:hotalloc-ok(first send from this source)
			c.sparse[src] = m
		}
		if l = m[dst]; l == nil {
			l = &link{} //cc:hotalloc-ok(first use of this link; reused afterwards)
			m[dst] = l
		}
	}
	if l.seq != c.flushSeq+1 {
		l.seq = c.flushSeq + 1
		c.touched[src] = append(c.touched[src], dst)
	}
	return l
}

// at returns the link src→dst, which linkFor registered since the last
// flush.
//
//cc:hotpath
func (c *Network) at(src, dst int) *link {
	if c.dense != nil {
		return &c.dense[src*c.n+dst]
	}
	return c.sparse[src][dst]
}
