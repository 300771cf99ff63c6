package clique

// This file is the simulator's sparse-link form: the same synchronous
// clique, with per-link state materialised only for links actually used.
//
// The flat-array form costs 192 B per directed link whatever the traffic:
// a 24 B queue header and an 8 B touch stamp, the same again for the payload
// plane's queue and analytic load, and two mailboxes of 24 + 8 B per plane —
// 12.6 MB at n = 256, 770 MB at n = 2000, and every receive walk scans all n
// source stamps of its destination. Traffic that uses most links (the dense
// engines) wants exactly that: a send is an index, a flush is a linear walk.
// Traffic that uses a vanishing share of them (the CSR tile engine moves
// Θ(ρ) words over 0.1–3 % of the links) pays for n² and uses none of it. So
// the form follows the traffic, not n. Every network is born sparse and
// keeps
//
//   - per-source maps of *slink (queue, payload queue, analytic load,
//     touch generation) materialised on first send, and
//   - per-destination mailbox entry lists, appended in ascending source
//     order by the flush walk, so Mail.From resolves by binary search and
//     Mail.Each walks exactly the delivering sources.
//
// Below sparseLinkFloor nodes it moves itself — once, one way — to the flat
// arrays at the end of the first flush that touched at least 1/denseSwitchDiv
// of the n² links (switchDense); Trim returns it to the newborn form. At
// sparseLinkFloor and above, and under WithSparseLinks, it stays sparse.
//
// Charging is unchanged: flushSparse computes the identical per-link load
// maximum and word total the dense walk computes, so the ledger — rounds,
// words, flushes, phase attribution — is bit-identical between the two
// forms (TestSparseLinksLedgerParity pins this differentially), and the
// fault plane perturbs a sparse mailbox entry with the same draws, in the
// same visit order, as a flat-array slot (FaultInjector.perturb).

// sparseLinkFloor is the node count from which a network never leaves the
// sparse-link form: 192 B × n² is 3.2 GB there, more than any traffic the
// simulator carries justifies. Below it the traffic selects the form.
const sparseLinkFloor = 4096

// denseSwitchDiv sets the traffic that moves a network to the flat arrays:
// one flush touching n²/denseSwitchDiv links or more. The two traffic
// classes sit apart on that axis: every dense-engine product has such a
// flush among its first exchanges (0.06–1.0 of the links at n ∈ {16…1000},
// either transport), while the tile engines on sparse inputs touch
// 0.0004–0.027 of them per flush at n ∈ {64…2000} (tables in DESIGN.md,
// "Link state follows traffic").
const denseSwitchDiv = 16

// WithSparseLinks pins the sparse-link form regardless of size and
// traffic, so tests can differentially compare the two forms at small n.
func WithSparseLinks() Option {
	return func(c *Network) { c.pinSparse = true }
}

// SparseLinks reports whether the network is in the sparse-link form right
// now (a network below sparseLinkFloor leaves it on its first dense flush).
func (c *Network) SparseLinks() bool { return c.sparseLinks }

// switchDense moves the network to the flat-array form. It runs at the end
// of a flush, when every link queue is drained, so no traffic migrates; the
// mail just filled and its predecessor stay in sparse form — Mail
// dispatches on its own form — and retire with their two-flush lifetime
// (DropPending still invalidates them). From here on the network runs the
// dense Send*/FlushAnalytic code and nothing else.
func (c *Network) switchDense() {
	c.queues = newQueues(c.n)
	c.touched = make([][]int, c.n)
	c.tstamp = make([]uint64, c.n*c.n) // flushSeq ≥ 1 here, so a zero stamp never matches
	c.slinks, c.stouched = nil, nil
	c.retired, c.mails = c.mails, [2]*Mail{}
	c.sparseLinks = false
}

// slink is the per-used-link state: the dense mode's queues[src][dst],
// pqueues/ploads entries, and touch stamp, materialised on first use.
type slink struct {
	q     []Word
	pq    []Payload
	pload int64
	seq   uint64 // touch generation (the dense mode's tstamp entry)
}

// slinkFor returns (creating if needed) the link src→dst and registers it
// with the upcoming flush. Per-source maps and touch lists keep concurrent
// ForEach senders — each restricted to its own source — on disjoint state,
// exactly like the dense mode's per-source rows.
//
//cc:hotpath
func (c *Network) slinkFor(src, dst int) *slink {
	m := c.slinks[src]
	if m == nil {
		m = make(map[int]*slink) //cc:hotalloc-ok(first send from this source)
		c.slinks[src] = m
	}
	sl := m[dst]
	if sl == nil {
		sl = &slink{} //cc:hotalloc-ok(first use of this link; reused afterwards)
		m[dst] = sl
	}
	if sl.seq != c.flushSeq+1 {
		sl.seq = c.flushSeq + 1
		c.stouched[src] = append(c.stouched[src], dst)
	}
	return sl
}

// mailEntry is one delivery (src, words, payloads) in a destination's
// sparse mailbox. Entries are revived in place across flushes so their
// word and payload buffers recycle like the dense mode's flat arrays.
type mailEntry struct {
	src int
	ws  []Word
	ps  []Payload
}

func newMailSparse(n int) *Mail {
	return &Mail{n: n, sbox: make([][]mailEntry, n), sstamp: make([]uint64, n)}
}

// releaseSparse drops the payload references (and spiked word buffers)
// the sparse mailboxes hold, walking only the destinations the last fill
// touched. The entries themselves stay, capacity warm, gated stale by the
// per-destination stamp until the next fill revives them.
func (m *Mail) releaseSparse() {
	for _, dst := range m.sdirty {
		box := m.sbox[dst]
		for i := range box {
			box[i].ps = trimPayloads(box[i].ps)
			if cap(box[i].ws) > linkRetainCap {
				box[i].ws = nil
			}
		}
	}
	m.sdirty = m.sdirty[:0]
}

// sparseEntry resolves dst's delivery from src by binary search over the
// mailbox (entries are in ascending source order by construction — the
// flush walk visits sources in ascending order).
//
//cc:hotpath
func (m *Mail) sparseEntry(dst, src int) *mailEntry {
	if m.sstamp[dst] != m.id {
		return nil
	}
	box := m.sbox[dst]
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

// flushSparse is FlushAnalytic on sparse-link state: identical delivery
// semantics and — critically — identical charging. The walk is over the
// touched links only; each destination's mailbox receives its entries in
// ascending source order because the outer loop ascends sources.
//
//cc:hotpath
func (c *Network) flushSparse(maxLoad, totalWords int64) *Mail {
	n := c.n
	if c.fault != nil {
		c.fault.checkFlush(c.flushes + 1)
	}
	mail := c.mails[c.flushSeq&1]
	if mail == nil {
		mail = newMailSparse(n) //cc:hotalloc-ok(lazy one-time mailbox init)
		c.mails[c.flushSeq&1] = mail
	}
	// This mail's previous deliveries reach the end of their two-flush
	// lifetime here; drop the references they pinned.
	mail.releaseSparse()
	seq := c.flushSeq + 1
	mail.id = seq
	total := totalWords
	faultLinks := c.fault != nil && c.fault.linkActive() // once per flush, as in the dense walk
	links := 0
	for src := 0; src < n; src++ {
		list := c.stouched[src]
		if len(list) == 0 {
			continue
		}
		links += len(list)
		srcLinks := c.slinks[src]
		for _, dst := range list {
			sl := srcLinks[dst]
			load := int64(len(sl.q)) + sl.pload
			sl.pload = 0
			if len(sl.q) > 0 || len(sl.pq) > 0 {
				box := mail.sbox[dst]
				if mail.sstamp[dst] != seq {
					box = box[:0]
					mail.sstamp[dst] = seq
					mail.sdirty = append(mail.sdirty, dst) //cc:hotalloc-ok(dirty-list growth; steady state reuses the array)
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
				mail.sbox[dst] = box
				e.ws = append(e.ws[:0], sl.q...) //cc:hotalloc-ok(capacity growth; steady state reuses the buffer)
				if len(sl.q) > linkRetainCap {
					sl.q = nil // spiked queue released now; the mail copy at the next release
				} else {
					sl.q = sl.q[:0]
				}
				if len(sl.pq) > 0 {
					e.ps = append(e.ps[:0], sl.pq...) //cc:hotalloc-ok(capacity growth; steady state reuses the buffer)
					for k := range sl.pq {
						sl.pq[k] = nil // release the queued references
					}
					if cap(sl.pq) > payloadRetainCap {
						sl.pq = nil
					} else {
						sl.pq = sl.pq[:0]
					}
				} else {
					e.ps = trimPayloads(e.ps)
				}
				// Fault application point, exactly where the dense walk has
				// it: the charge reflects what was sent, only delivered
				// data changes.
				if faultLinks && src != dst {
					c.fault.linkSparse(e, src, dst, seq)
				}
			}
			if src != dst && load > 0 {
				if load > maxLoad {
					maxLoad = load
				}
				total += load
			}
		}
		c.stouched[src] = list[:0]
	}
	c.flushSeq = seq
	c.flushes++
	if !c.pinSparse && links*denseSwitchDiv >= n*n {
		c.switchDense()
	}
	if c.fault != nil {
		maxLoad += c.fault.straggle(seq)
	}
	c.charge(maxLoad, total)
	return mail
}

// dropPendingSparse is DropPending's sparse-link walk.
func (c *Network) dropPendingSparse() {
	for src, list := range c.stouched {
		srcLinks := c.slinks[src]
		for _, dst := range list {
			sl := srcLinks[dst]
			sl.q = trimWords(sl.q)
			sl.pq = trimPayloads(sl.pq)
			sl.pload = 0
		}
		c.stouched[src] = list[:0]
	}
}
