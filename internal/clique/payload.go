package clique

import "fmt"

// This file is the simulator's split into an accounting plane and a data
// plane.
//
// The congested-clique model only *counts* rounds and O(log n)-bit words;
// nothing requires the simulator to materialise those words when all n
// nodes share one address space. The payload path below therefore moves
// opaque typed values (slices of algebra elements, boxed pointers) by
// reference, while the cost of the wire words they *would* occupy is
// charged analytically: the sender declares the exact word count (computed
// from the codec's EncodedLen, so a bit-packed Boolean row still costs
// ⌈len/64⌉ words) and Flush folds it into the same per-link load maximum
// that real queued words produce. Rounds, words, flushes, and phase
// attribution are therefore bit-identical between the two transports — the
// wire transport stays the reference (WithWireTransport; the ccmm parity
// tests run every engine on both and compare results and ledgers) and the
// path of protocols whose payloads genuinely are word-structured.

// Transport selects how the simulator moves algorithm data.
type Transport int

const (
	// TransportDirect moves algebra-typed payloads by reference and
	// charges their wire cost analytically. It is the default: the ledger
	// is identical to the wire path, only the encode/copy/decode work is
	// skipped.
	TransportDirect Transport = iota
	// TransportWire materialises every message as encoded words moved
	// through link queues — the reference, in which every charged word
	// really exists.
	TransportWire
)

// String implements fmt.Stringer.
func (t Transport) String() string {
	switch t {
	case TransportDirect:
		return "direct"
	case TransportWire:
		return "wire"
	default:
		return fmt.Sprintf("transport(%d)", int(t))
	}
}

// WithTransport selects the network's transport at construction.
func WithTransport(t Transport) Option {
	return func(c *Network) { c.transport = t }
}

// SetTransport selects the transport for subsequent runs; like
// SetRoundLimit it survives Reset, so sessions arm it per operation.
func (c *Network) SetTransport(t Transport) { c.transport = t }

// Transport returns the network's current transport.
func (c *Network) Transport() Transport { return c.transport }

// Payload is an opaque value riding the data plane. Senders relinquish the
// payload at SendPayload; receivers may read it until the second-next
// Flush — the same double-buffered lifetime Mail gives word vectors. To
// keep the path allocation-free, box a pointer (e.g. *[]T into a stable
// slot) rather than a slice header.
type Payload = any

// SendPayload enqueues an opaque payload from src to dst for the next
// Flush, charging `words` analytic wire words on the link (the number of
// words the payload would occupy encoded — callers compute it from
// ring.BulkCodec.EncodedLen, chunk by chunk). Sending to oneself is legal
// and free, like any self-send. The payload itself adds no further cost,
// so traffic whose words were already charged elsewhere (two-phase
// schedules) rides with words = 0. Payload senders are single-threaded
// (the engines' exchange loops run between ForEach phases).
//
//cc:hotpath
func (c *Network) SendPayload(src, dst int, words int64, p Payload) {
	c.open(src, dst)
	l := c.linkFor(src, dst)
	l.pq = append(l.pq, p)
	if words > 0 {
		l.load += words
	}
}

// ChargeBroadcast charges exactly what Broadcast would for per-node vector
// lengths lens: max_v lens[v] rounds and Σ_v lens[v]·(n−1) words. The data
// plane hands receivers the senders' vectors directly (shared, read-only),
// so nothing travels.
func (c *Network) ChargeBroadcast(lens []int64) {
	if len(lens) != c.n {
		panic(fmt.Sprintf("clique: ChargeBroadcast wants %d lengths, got %d", c.n, len(lens)))
	}
	var maxLen, total int64
	minLen := lens[0]
	for _, l := range lens {
		maxLen, minLen = max(maxLen, l), min(minLen, l)
		total += l * int64(c.n-1)
	}
	c.chargeBroadcast(maxLen, minLen, total)
}

// EachPayload calls f for every (src, payloads) pair delivered to dst, in
// increasing source order — the payload-plane twin of Each. The walk
// visits only the sources that actually delivered, so a receiver's cost is
// proportional to its traffic, not to n; engines running at sparse-link
// scale must use it instead of probing all n sources with PayloadsFrom.
//
//cc:hotpath
func (m *Mail) EachPayload(dst int, f func(src int, ps []Payload)) {
	if m.stamp[dst] != m.id {
		return
	}
	for i := range m.box[dst] {
		if e := &m.box[dst][i]; len(e.ps) > 0 {
			f(e.src, e.ps)
		}
	}
}

// PayloadsFrom returns the payloads dst received from src in the last
// Flush, in FIFO order (nil if none). Valid until the second-next Flush,
// like the word vectors.
//
//cc:hotpath
func (m *Mail) PayloadsFrom(dst, src int) []Payload {
	if e := m.entry(dst, src); e != nil && len(e.ps) > 0 {
		return e.ps
	}
	return nil
}
