package routing

import (
	"fmt"
	"slices"

	"github.com/algebraic-clique/algclique/internal/clique"
)

// This file is the routing layer's analytic side: the Lenzen stripe's
// closed-form charges (TwoPhaseCosts; koenig.go holds the oblivious
// exchanges' König assignment), the personalised exchange that
// rides them with typed payloads moved by reference (ExchangePayload, the
// body of Exchange too), and AllGather's charge for receivers that read
// the senders' vectors in place (ChargeAllGather). Every charge here is
// the ledger — rounds, words, flushes, strategy choice — of the schedule
// it describes, word for word.

// Link is the traffic of one directed link: Words words from Src to Dst.
type Link struct {
	Src, Dst int32
	Words    int64
}

// Costs are the charged aggregates of the two schedules Auto chooses
// between for one traffic pattern: the non-self per-link load maximum and
// word total of each phase of the two-phase schedule, and the direct
// schedule's non-self per-link maximum. Out and In are the pattern's own:
// the most words any node sends, and receives, off its own node — its
// information bound (clique.Network.GradeExchange).
type Costs struct {
	MaxA, TotalA, MaxB, TotalB, Direct int64
	Out, In                            int64
}

// TwoPhase is Auto's choice, the one comparison every exchange resolves it
// with: two-phase when the sum of its phase maxima — its rounds — beats
// the direct schedule's.
func (c Costs) TwoPhase() bool { return c.MaxA+c.MaxB < c.Direct }

// TwoPhaseCosts reduces both schedules for the traffic on links to their
// charged aggregates. links lists every link that carries words, self-links
// included, sorted by (Src, Dst) with each link once; the work and memory
// are O(n + len(links)), never n×n.
//
// The striping is Lenzen's two-phase schedule: sender src's flat word
// stream — its messages in destination order — rides intermediaries
// (off+p) mod n in turn. So each phase-A link of src carries ⌊flat/n⌋ full
// laps plus at most one more word, closed-form per sender; and in phase B
// an l-word message to dst puts ⌊l/n⌋ words on every intermediary's link to
// dst plus one on each intermediary of an arc of l mod n consecutive ones,
// so the heaviest link into dst carries the laps plus the deepest overlap
// of those arcs away from dst itself. It is the one implementation of the
// striping arithmetic, and the schedule of every exchange whose lengths
// follow its data: Exchange, ExchangePayload and the sparse engine's port
// read these aggregates, on either transport (the per-link reference
// implementation lives in the tests). An exchange whose lengths are common
// knowledge may ride the König assignment instead (ObliviousCosts, which
// starts from these aggregates).
func TwoPhaseCosts(n int, sc *Scratch, links []Link) (c Costs) {
	if n <= 1 {
		return c // every link is the free self-link
	}
	ws := &twoPhaseWork{}
	if sc != nil {
		ws = &sc.tp
	}
	nn := int64(n)
	laps, in := zeroedLoads(ws.laps, n), zeroedLoads(ws.in, n)
	evs := ws.evs[:0]
	for i := 0; i < len(links); {
		src := links[i].Src
		var out int64
		off := int64(stripeOffset(int(src), n))
		// flat counts src's words so far; pos = (off + flat) mod n is the
		// intermediary of its next word. Messages are mostly shorter than n,
		// so the loop keeps both without dividing.
		var flat int64
		pos := off
		for ; i < len(links) && links[i].Src == src; i++ {
			l := links[i]
			if l.Words <= 0 {
				continue
			}
			if l.Src != l.Dst {
				c.Direct = max(c.Direct, l.Words)
				out += l.Words
				in[l.Dst] += l.Words
			}
			lp, rem := int64(0), l.Words
			if rem >= nn {
				lp, rem = rem/nn, rem%nn
			}
			laps[l.Dst] += lp
			self := lp // the message's words that land on dst as intermediary: free
			if rem > 0 {
				// The arc [pos, pos+rem) as start (key pos<<1 | 1) and end
				// (key end<<1) events, split where it wraps past n-1.
				if d := int64(l.Dst) - pos; d >= 0 && d < rem || d < 0 && d+nn < rem {
					self++
				}
				s, e := int32(pos)<<1|1, int32(pos+rem)<<1
				if pos += rem; pos >= nn {
					pos -= nn
					evs = append(evs, event{l.Dst, s}, event{l.Dst, int32(n) << 1}, event{l.Dst, 1}, event{l.Dst, int32(pos) << 1})
				} else {
					evs = append(evs, event{l.Dst, s}, event{l.Dst, e})
				}
			}
			c.TotalB += l.Words - self
			flat += l.Words
		}
		if flat > 0 {
			lp, rem := flat/nn, flat%nn
			selfIdx := int64(src) - off
			if selfIdx < 0 {
				selfIdx += nn
			}
			selfLoad, ma := lp, lp
			if selfIdx < rem {
				selfLoad++
			}
			if rem > 0 && (rem >= 2 || selfIdx != 0) {
				ma++
			}
			c.MaxA = max(c.MaxA, ma)
			c.TotalA += flat - selfLoad
		}
		c.Out = max(c.Out, out)
	}
	// Order the events by (dst, key) with two stable counting passes, key
	// first; ends[d] is then the end of d's run.
	byKey, byDst := resize(ws.byKey, len(evs)), resize(ws.byDst, len(evs))
	cnt := zeroedLoads(ws.cnt, 2*n+2)
	for _, e := range evs {
		cnt[e.key+1]++
	}
	for k := 1; k < len(cnt); k++ {
		cnt[k] += cnt[k-1]
	}
	for _, e := range evs {
		byKey[cnt[e.key]] = e
		cnt[e.key]++
	}
	ends := zeroedLoads(ws.ends, n+1)
	for _, e := range byKey {
		ends[e.dst+1]++
	}
	for d := 0; d < n; d++ {
		ends[d+1] += ends[d]
	}
	for _, e := range byKey {
		byDst[ends[e.dst]] = e
		ends[e.dst]++
	}
	var lo int64
	for d := 0; d < n; d++ {
		c.MaxB = max(c.MaxB, laps[d]+deepest(byDst[lo:ends[d]], int32(d), int32(n)))
		c.In = max(c.In, in[d])
		lo = ends[d]
	}
	ws.laps, ws.in, ws.evs, ws.byKey, ws.byDst, ws.cnt, ws.ends = laps, in, evs, byKey, byDst, cnt, ends
	return c
}

// event is one end of a phase-B arc bound for dst: key is position<<1 | 1
// where the arc starts covering intermediaries and position<<1 where it
// stops.
type event struct{ dst, key int32 }

// twoPhaseWork is TwoPhaseCosts' working set, kept in a Scratch between
// calls: per-destination laps and words, the arc events in sender order and sorted,
// and the counting sorts' tallies.
type twoPhaseWork struct {
	laps, in, cnt, ends []int64
	evs, byKey, byDst   []event
}

// deepest returns how many arcs cover the most-covered intermediary other
// than dst, given the arcs' events in position order.
func deepest(ev []event, dst, n int32) (best int64) {
	var cov int64
	for i := 0; i < len(ev); {
		pos := ev[i].key >> 1
		for ; i < len(ev) && ev[i].key>>1 == pos; i++ {
			if ev[i].key&1 == 1 {
				cov++
			} else {
				cov--
			}
		}
		next := n
		if i < len(ev) {
			next = ev[i].key >> 1
		}
		// [pos, next) is covered cov deep; it counts unless it is dst alone.
		if cov > best && next > pos && (next-pos > 1 || pos != dst) {
			best = cov
		}
	}
	return best
}

// PlanCosts is TwoPhaseCosts for a materialised n×n lens array
// (lensBuf[src*n+dst]), the form the message-matrix exchanges hold. With a
// Scratch the result is memoised on the lens contents (see exchangePlan):
// the aggregates are a pure function of the lens array, so replayed
// oblivious patterns skip the striping arithmetic entirely.
func PlanCosts(n int, sc *Scratch, lensBuf []int64) Costs {
	var links []Link
	if sc != nil {
		for i := range sc.plans {
			if p := &sc.plans[i]; slices.Equal(p.lens, lensBuf) {
				return p.c
			}
		}
		links = sc.links[:0]
	}
	for src := 0; src < n; src++ {
		for dst, l := range lensBuf[src*n : (src+1)*n] {
			if l > 0 {
				links = append(links, Link{Src: int32(src), Dst: int32(dst), Words: l})
			}
		}
	}
	c := TwoPhaseCosts(n, sc, links)
	if sc != nil {
		sc.links = links
		if len(sc.plans) >= maxExchangePlans {
			sc.plans = sc.plans[:0]
		}
		sc.plans = append(sc.plans, exchangePlan{lens: append([]int64(nil), lensBuf...), c: c})
	}
	return c
}

// ChargeAllGather charges the exact ledger of AllGather for per-node
// vector lengths lens, which every node knows already: the analytic spread
// flush and the publish broadcast. The data plane is the callers' own
// vectors, which every receiver can read in place.
func ChargeAllGather(net *clique.Network, lens []int64) {
	n := net.N()
	if len(lens) != n {
		panic(fmt.Sprintf("routing: ChargeAllGather wants %d lengths, got %d", n, len(lens)))
	}
	var total int64
	for _, l := range lens {
		total += l
	}
	if total == 0 {
		return
	}
	chunk := (total + int64(n) - 1) / int64(n)

	// Spread: sender v's words occupy global positions [pos, pos+l); the
	// words landing on holder h are the overlap with h's window
	// [h·chunk, (h+1)·chunk). Self-deliveries (h = v) are free, as in the
	// real flush.
	var pos, maxSpread, totalSpread, maxOut int64
	held := make([]int64, n) // first what each holder takes from the others, then its window
	for v, l := range lens {
		if l == 0 {
			continue
		}
		var out int64
		end := pos + l
		for h := int(pos / chunk); int64(h)*chunk < end && h < n; h++ {
			lo := int64(h) * chunk
			if pos > lo {
				lo = pos
			}
			hi := (int64(h) + 1) * chunk
			if end < hi {
				hi = end
			}
			if hi > lo && h != v {
				totalSpread += hi - lo
				maxSpread = max(maxSpread, hi-lo)
				out += hi - lo
				held[h] += hi - lo
			}
		}
		maxOut = max(maxOut, out)
		pos = end
	}
	net.FlushAnalytic(maxSpread, totalSpread)
	net.GradeExchange(maxOut, slices.Max(held))

	// Publish: each holder broadcasts its window.
	for h := 0; h < n; h++ {
		held[h] = 0
		lo := int64(h) * chunk
		hi := lo + chunk
		if hi > total {
			hi = total
		}
		if hi > lo {
			held[h] = hi - lo
		}
	}
	net.ChargeBroadcast(held)
}

// ExchangePayload is Exchange for typed messages: pays[src][dst] is the
// typed per-pair message and words(k) the analytic wire length of a
// k-element message (the codec's EncodedLen summed over the message's
// chunks — callers with multi-chunk messages fold the chunk structure into
// the closure). The strategy is resolved and both schedules charged from
// those lengths through PlanCosts: direct sends charge their lengths on
// their own links, and a two-phase exchange charges both Lenzen phases
// analytically with the messages riding its second flush for free. The
// payloads move by reference through the simulator's Mail, so the
// delivered slices alias the senders' buffers and are valid until the
// caller rebuilds them.
//
// in must be an n×n receive matrix; entries for addressed pairs are
// overwritten (nil where a fault plan dropped the delivery) and all others
// left untouched (stale), the contract ExchangeScratch gives oblivious
// protocols. It is returned for convenience.
//
//cc:hotpath
func ExchangePayload[T any](net *clique.Network, strategy Strategy, sc *Scratch, pays [][][]T, words func(elems int) int64, in [][][]T) [][][]T {
	n := net.N()
	if strategy < Auto || strategy > TwoPhase {
		panic(fmt.Sprintf("routing: unknown strategy %d", int(strategy)))
	}
	if len(pays) != n || len(in) != n {
		panic(fmt.Sprintf("routing: ExchangePayload wants %d×%d matrices, got %d and %d rows", n, n, len(pays), len(in)))
	}
	// Materialise the analytic lens once; every subsequent pass — strategy
	// estimation, schedule loads, send charging — reads the flat array.
	var lensBuf []int64
	if sc != nil {
		lensBuf = sc.payLens(n * n)
	} else {
		lensBuf = make([]int64, n*n) //cc:hotalloc-ok(nil-scratch transient fallback)
	}
	for src := 0; src < n; src++ {
		row := pays[src]
		base := src * n
		for dst := range row {
			if l := len(row[dst]); l > 0 {
				lensBuf[base+dst] = words(l)
			}
		}
	}
	twoPhase := strategy == TwoPhase
	var c Costs
	if strategy != Direct {
		// Resolve Auto, reusing the (memoised) schedule aggregates for the
		// charge itself.
		c = PlanCosts(n, sc, lensBuf)
		if strategy == Auto {
			twoPhase = c.TwoPhase()
		}
	}
	var mail *clique.Mail
	if twoPhase {
		net.GradeExchange(c.Out, c.In)
		net.FlushAnalytic(c.MaxA, c.TotalA)
		for src := 0; src < n; src++ {
			row := pays[src]
			for dst := range row {
				if len(row[dst]) > 0 {
					net.SendPayload(src, dst, 0, &row[dst])
				}
			}
		}
		mail = net.FlushAnalytic(c.MaxB, c.TotalB)
	} else {
		for src := 0; src < n; src++ {
			row := pays[src]
			base := src * n
			for dst := range row {
				if len(row[dst]) > 0 {
					net.SendPayload(src, dst, lensBuf[base+dst], &row[dst])
				}
			}
		}
		mail = net.Flush()
	}
	for src := 0; src < n; src++ {
		for dst := range pays[src] {
			if len(pays[src][dst]) > 0 {
				in[dst][src] = nil
				if ps := mail.PayloadsFrom(dst, src); len(ps) > 0 {
					in[dst][src] = *(ps[0].(*[]T))
				}
			}
		}
	}
	return in
}
