package clique_test

import (
	"math/rand/v2"
	"reflect"
	"runtime"
	"testing"

	"github.com/algebraic-clique/algclique/internal/clique"
)

// linkOp is one scripted enqueue for the differential tests below.
type linkOp struct {
	kind     int // 0 Send, 1 SendVec, 2 SendPayload, 3 SendPayload with a light load
	src, dst int
	val      uint64
}

// scriptOps draws count enqueues over n nodes, mixing both planes.
func scriptOps(rng *rand.Rand, n, count int) []linkOp {
	ops := make([]linkOp, count)
	for i := range ops {
		ops[i] = linkOp{kind: rng.IntN(4), src: rng.IntN(n), dst: rng.IntN(n), val: rng.Uint64N(1 << 40)}
	}
	return ops
}

// applyOps enqueues ops on c (payloads are fresh per network, so an
// injected corruption on one twin cannot reach the other) and returns how
// many sends a crashed source refused.
func applyOps(c *clique.Network, ops []linkOp) (refused int) {
	for _, op := range ops {
		func() {
			defer func() {
				if r := recover(); r != nil {
					if _, ok := clique.AsAbort(r); !ok {
						panic(r)
					}
					refused++
				}
			}()
			switch op.kind {
			case 0:
				c.Send(op.src, op.dst, op.val)
			case 1:
				c.SendVec(op.src, op.dst, []clique.Word{op.val, uint64(op.src), uint64(op.dst)})
			case 2:
				v := []int64{int64(op.val), int64(op.src) - int64(op.dst)}
				c.SendPayload(op.src, op.dst, 2, &v)
			default:
				v := []int64{int64(op.val)}
				c.SendPayload(op.src, op.dst, int64(op.val%5), &v)
			}
		}()
	}
	return refused
}

// readMail digests everything a mail delivers through all four read paths
// (From, Each, PayloadsFrom, EachPayload), so two mails compare read by read.
func readMail(m *clique.Mail, n int) []uint64 {
	var d []uint64
	payload := func(ps []clique.Payload) {
		for _, p := range ps {
			for _, x := range *p.(*[]int64) {
				d = append(d, uint64(x))
			}
		}
	}
	for dst := 0; dst < n; dst++ {
		for src := 0; src < n; src++ {
			if ws := m.From(dst, src); ws != nil {
				d = append(d, 1, uint64(dst), uint64(src), uint64(len(ws)))
				d = append(d, ws...)
			}
			if ps := m.PayloadsFrom(dst, src); ps != nil {
				d = append(d, 2, uint64(dst), uint64(src), uint64(len(ps)))
				payload(ps)
			}
		}
		m.Each(dst, func(src int, ws []clique.Word) {
			d = append(d, 3, uint64(dst), uint64(src), uint64(len(ws)))
			d = append(d, ws...)
		})
		m.EachPayload(dst, func(src int, ps []clique.Payload) {
			d = append(d, 4, uint64(dst), uint64(src), uint64(len(ps)))
			payload(ps)
		})
	}
	return d
}

// driveRandomTraffic runs a deterministic pseudo-random mixed-plane
// schedule on a network: scripted sends, payload sends, analytic loads,
// broadcasts, flushes, and a mid-run DropPending. It returns a digest of
// everything delivered, so two networks can be compared exchange by
// exchange.
func driveRandomTraffic(t *testing.T, c *clique.Network, seed uint64) (digest []uint64, stats clique.Stats) {
	t.Helper()
	n := c.N()
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	c.Phase("traffic")
	for step := 0; step < 8; step++ {
		applyOps(c, scriptOps(rng, n, rng.IntN(4*n)))
		if step == 5 {
			// A half-built exchange is abandoned: the retry path every
			// fault recovery takes. Nothing from it may leak below.
			c.DropPending()
			c.Send(1%n, 0, 0xabad1dea)
		}
		mail := c.FlushAnalytic(int64(rng.IntN(3)), int64(rng.IntN(7)))
		digest = append(digest, readMail(mail, n)...)
		if step == 2 {
			bv := make([]clique.Word, n)
			for v := range bv {
				bv[v] = uint64(v * v)
			}
			out := c.BroadcastWord(bv)
			digest = append(digest, out...)
		}
	}
	return digest, c.Stats()
}

// TestSparseLinksLedgerParity is the representation-equivalence test: the
// same scripted traffic on a flat-array network, on one pinned to sparse
// links, and on one left to pick its form from the traffic (which switches
// it during the script) must deliver identical data and charge an
// identical ledger.
func TestSparseLinksLedgerParity(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		for seed := uint64(1); seed <= 3; seed++ {
			dense := clique.NewDense(t, n)
			sparse := clique.New(n, clique.WithSparseLinks())
			auto := clique.New(n)
			if !sparse.SparseLinks() || !auto.SparseLinks() {
				t.Fatal("a network must be born in sparse-link form")
			}
			dd, ds := driveRandomTraffic(t, dense, seed)
			sd, ss := driveRandomTraffic(t, sparse, seed)
			ad, as := driveRandomTraffic(t, auto, seed)
			if dense.SparseLinks() || !sparse.SparseLinks() {
				t.Fatal("a flat-array network went back, or a pinned one switched")
			}
			if !reflect.DeepEqual(dd, sd) || !reflect.DeepEqual(ad, sd) {
				t.Fatalf("n=%d seed=%d: delivered data diverged (dense %d entries, sparse %d, auto %d)", n, seed, len(dd), len(sd), len(ad))
			}
			if !reflect.DeepEqual(ds, ss) || !reflect.DeepEqual(as, ss) {
				t.Fatalf("n=%d seed=%d: ledger diverged: dense %+v, sparse %+v, auto %+v", n, seed, ds, ss, as)
			}
		}
	}
}

// TestSparseLinksReuse pins Reset/reuse behaviour: a reused sparse-link
// network charges the same as a fresh one, and stale mail is invalidated.
func TestSparseLinksReuse(t *testing.T) {
	c := clique.New(6, clique.WithSparseLinks())
	run := func() (clique.Stats, []uint64) {
		d, s := driveRandomTraffic(t, c, 7)
		return s, d
	}
	s1, d1 := run()
	c.Reset()
	s2, d2 := run()
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(d1, d2) {
		t.Fatal("reused sparse-link network diverged from its first run")
	}
	c.Trim()
	c.Reset()
	s3, d3 := run()
	if !reflect.DeepEqual(s1, s3) || !reflect.DeepEqual(d1, d3) {
		t.Fatal("trimmed sparse-link network diverged from its first run")
	}
}

// TestSparseLinksMailLifetime checks the double-buffered Mail contract in
// sparse mode: a delivery stays readable after the next flush and reads
// as empty (not stale) after DropPending.
func TestSparseLinksMailLifetime(t *testing.T) {
	c := clique.New(4, clique.WithSparseLinks())
	c.Send(0, 2, 42)
	m1 := c.Flush()
	c.Send(1, 2, 43)
	m2 := c.Flush()
	if got := m1.From(2, 0); len(got) != 1 || got[0] != 42 {
		t.Fatalf("first mail unreadable after second flush: %v", got)
	}
	if got := m2.From(2, 1); len(got) != 1 || got[0] != 43 {
		t.Fatalf("second mail wrong: %v", got)
	}
	if m2.From(2, 0) != nil {
		t.Fatal("second mail shows first flush's delivery")
	}
	c.DropPending()
	if m1.From(2, 0) != nil || m2.From(2, 1) != nil {
		t.Fatal("mail readable after DropPending")
	}
}

// TestSparseLinksPendingWords mirrors the dense PendingWords semantics.
func TestSparseLinksPendingWords(t *testing.T) {
	c := clique.New(5, clique.WithSparseLinks())
	c.Send(3, 0, 1)
	c.SendVec(3, 1, []clique.Word{2, 3})
	c.SendPayload(3, 4, 7, nil)
	c.Send(3, 3, 9) // self-delivery is free and uncounted
	if got := c.PendingWords(3); got != 10 {
		t.Fatalf("PendingWords = %d, want 10", got)
	}
	c.Flush()
	if got := c.PendingWords(3); got != 0 {
		t.Fatalf("PendingWords after flush = %d, want 0", got)
	}
}

// TestSparseLinksAutoFloor checks construction never allocates Θ(n²) state
// at any size: below the floor a network is born sparse (the flat arrays
// would be 770 MB at n = 2000), and a 1M-node network's dense bookkeeping
// would be ≥ 24 GB — the construction itself is the test.
func TestSparseLinksAutoFloor(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	small := clique.New(2000)
	runtime.ReadMemStats(&after)
	if !small.SparseLinks() {
		t.Fatal("New(2000) was not born in sparse-link form")
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("New(2000) allocated %d bytes, want < 1 MB", got)
	}
	c := clique.New(1 << 20)
	if !c.SparseLinks() {
		t.Fatal("dense links at n = 1M")
	}
	c.Send(0, 999_999, 5)
	if got := c.Flush().From(999_999, 0); len(got) != 1 || got[0] != 5 {
		t.Fatalf("delivery at n = 1M: %v", got)
	}
	if c.Rounds() != 1 || c.Words() != 1 {
		t.Fatalf("ledger at n = 1M: %d rounds, %d words", c.Rounds(), c.Words())
	}
	c.Close()
}

// driveTwins runs one script on a traffic-selected network and on its
// pinned-sparse twin: flush k is the first to touch n²/16 links, so auto
// must be sparse before it and flat after. After every flush both the new
// mail and its predecessor — still inside its two-flush lifetime, and for
// flushes k and k+1 a sparse-form mail outliving the switch — must read
// identically on the twins.
func driveTwins(t *testing.T, auto, pinned *clique.Network, seed uint64, k int) {
	t.Helper()
	n := auto.N()
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	var prevA, prevP *clique.Mail
	for step := 1; step <= k+3; step++ {
		count := 1 + rng.IntN(n*n/16-1) // fewer enqueues than the threshold has links
		if step == k {
			count = 4 * n * n // all but surely every link
		} else if step > k {
			count = rng.IntN(n * n)
		}
		ops := scriptOps(rng, n, count)
		if ra, rp := applyOps(auto, ops), applyOps(pinned, ops); ra != rp {
			t.Fatalf("step %d: crashed-source refusals diverged: %d vs %d", step, ra, rp)
		}
		maxLoad, extra := int64(rng.IntN(3)), int64(rng.IntN(7))
		ma, mp := auto.FlushAnalytic(maxLoad, extra), pinned.FlushAnalytic(maxLoad, extra)
		if auto.SparseLinks() != (step < k) || !pinned.SparseLinks() {
			t.Fatalf("step %d of switch-at-%d: auto sparse = %v, pinned sparse = %v", step, k, auto.SparseLinks(), pinned.SparseLinks())
		}
		if !reflect.DeepEqual(readMail(ma, n), readMail(mp, n)) {
			t.Fatalf("step %d of switch-at-%d: delivery diverged from the pinned twin", step, k)
		}
		if prevA != nil && !reflect.DeepEqual(readMail(prevA, n), readMail(prevP, n)) {
			t.Fatalf("step %d of switch-at-%d: the previous flush's mail diverged from the pinned twin", step, k)
		}
		prevA, prevP = ma, mp
	}
	if sa, sp := auto.Stats(), pinned.Stats(); !reflect.DeepEqual(sa, sp) {
		t.Fatalf("switch-at-%d: ledger diverged: auto %+v, pinned %+v", k, sa, sp)
	}
}

// TestSparseLinksSwitchBoundary pins the one-way move from sparse links to
// the flat arrays: whichever flush crosses the threshold, the ledger, every
// read of every mail, and the lifetime of the two mails alive across the
// switch equal a pinned-sparse twin's; Reset keeps the form, Trim returns
// the network to its newborn one, and DropPending invalidates the mails the
// switch retired.
func TestSparseLinksSwitchBoundary(t *testing.T) {
	const n = 12
	for k := 1; k <= 4; k++ {
		for seed := uint64(1); seed <= 3; seed++ {
			auto, pinned := clique.New(n), clique.New(n, clique.WithSparseLinks())
			driveTwins(t, auto, pinned, seed, k)
			first := auto.Stats()

			auto.Reset()
			pinned.Reset()
			if auto.SparseLinks() {
				t.Fatal("Reset returned a switched network to sparse form")
			}
			auto.Trim()
			if !auto.SparseLinks() {
				t.Fatal("Trim left the flat arrays in place")
			}
			driveTwins(t, auto, pinned, seed, k)
			if again := auto.Stats(); !reflect.DeepEqual(first, again) {
				t.Fatalf("trimmed network diverged from its first run: %+v vs %+v", first, again)
			}
		}
	}

	// The two sparse-form mails alive at the switch are invalidated by
	// DropPending like any other.
	c := clique.New(n)
	c.Send(0, 1, 7)
	before := c.Flush()
	applyOps(c, scriptOps(rand.New(rand.NewPCG(9, 9)), n, 4*n*n))
	c.Send(2, 3, 8)
	at := c.Flush()
	if c.SparseLinks() {
		t.Fatal("a flush over every link did not switch the network")
	}
	if got := before.From(1, 0); len(got) != 1 || got[0] != 7 {
		t.Fatalf("the pre-switch mail is unreadable after the switch: %v", got)
	}
	if got := at.From(3, 2); len(got) == 0 || got[len(got)-1] != 8 {
		t.Fatalf("the switching flush's mail is unreadable: %v", got)
	}
	c.DropPending()
	if before.From(1, 0) != nil || at.From(3, 2) != nil {
		t.Fatal("mail retired by the switch stays readable after DropPending")
	}
}

// TestSparseLinksSwitchSteadyStateAllocFree checks the steady-state flush
// allocates nothing on either side of the switch: light traffic recycles
// the link maps and mailbox entries, dense traffic the flat arrays.
func TestSparseLinksSwitchSteadyStateAllocFree(t *testing.T) {
	const n = 32
	c := clique.New(n)
	vec := []clique.Word{1, 2, 3}
	cycle := func(fan int) func() {
		return func() {
			for src := 0; src < n; src++ {
				for j := 1; j <= fan; j++ {
					c.SendVec(src, (src+j)%n, vec)
				}
			}
			if m := c.Flush(); len(m.From(1, 0)) != 3 {
				t.Fatal("delivery lost words")
			}
		}
	}
	light, dense := cycle(1), cycle(n-1) // 32 links, under the 32²/16 that switch; then all of them
	light()
	light()
	if allocs := testing.AllocsPerRun(20, light); allocs > 0 || !c.SparseLinks() {
		t.Errorf("light cycle: %.1f allocs (want 0), sparse form = %v (want true)", allocs, c.SparseLinks())
	}
	dense()
	dense()
	if allocs := testing.AllocsPerRun(20, dense); allocs > 0 || c.SparseLinks() {
		t.Errorf("dense cycle: %.1f allocs (want 0), sparse form = %v (want false)", allocs, c.SparseLinks())
	}
}

// TestSparseLinksFaultParity is the fault plane's representation test: one
// seeded plan — drop, duplicate, corrupt on words and on payloads, a crash,
// and a MaxFaults budget that runs out mid-walk — fires the same faults and
// leaves the same mail on a pinned-sparse network and on one that moves to
// the flat arrays at flush k.
func TestSparseLinksFaultParity(t *testing.T) {
	const n = 12
	plans := []clique.FaultPlan{
		{Seed: 11, DropProb: 0.15, DupProb: 0.15, CorruptProb: 0.3},
		{Seed: 12, DropProb: 0.2, DupProb: 0.2, CorruptProb: 0.4, MaxFaults: 40},
		{Seed: 13, DropProb: 0.1, CorruptProb: 0.5, CrashAtRound: 4, CrashNode: 5, StraggleProb: 0.5, StraggleSkew: 2},
	}
	for _, plan := range plans {
		for k := 1; k <= 3; k++ {
			auto, pinned := clique.New(n), clique.New(n, clique.WithSparseLinks())
			fa, fp := clique.NewFaultInjector(plan, clique.CorruptInt64s), clique.NewFaultInjector(plan, clique.CorruptInt64s)
			auto.SetFaultInjector(fa)
			pinned.SetFaultInjector(fp)
			driveTwins(t, auto, pinned, plan.Seed, k)
			if fa.Stats() != fp.Stats() {
				t.Fatalf("plan %+v switch-at-%d: fault ledger diverged: auto %+v, pinned %+v", plan, k, fa.Stats(), fp.Stats())
			}
			st := fa.Stats()
			if st.Dropped == 0 || st.Corrupted == 0 || (plan.DupProb > 0 && st.Duplicated == 0) || (plan.CrashAtRound > 0 && st.Crashes == 0) {
				t.Fatalf("plan %+v fired too little to compare: %+v", plan, st)
			}
			if plan.MaxFaults > 0 && st.Corrupted+st.Dropped+st.Duplicated != plan.MaxFaults {
				t.Fatalf("plan %+v: %+v does not sit at the MaxFaults budget", plan, st)
			}
		}
	}
}

// TestSparseLinksSwitchConcurrentSenders drives ForEach senders — each on
// its own source, the Send contract; payloads go out single-threaded, the
// SendPayload contract — through growing fan-outs so the switch happens
// between two concurrent send phases (the race lane runs this).
func TestSparseLinksSwitchConcurrentSenders(t *testing.T) {
	const n = 32
	c := clique.New(n, clique.WithWorkers(4))
	defer c.Close()
	switched := false
	for _, fan := range []int{1, 2, 4, 8, 3} {
		c.ForEach(func(v int) {
			for j := 1; j <= fan; j++ {
				c.Send(v, (v+j)%n, uint64(v*n+j))
			}
		})
		for v := 0; v < n; v++ {
			for j := 1; j <= fan; j++ {
				p := []int64{int64(v), int64(j)}
				c.SendPayload(v, (v+j)%n, 1, &p)
			}
		}
		mail := c.Flush()
		c.ForEach(func(v int) {
			got := 0
			mail.Each(v, func(src int, ws []clique.Word) {
				j := (v - src + n) % n
				if len(ws) != 1 || ws[0] != uint64(src*n+j) || len(mail.PayloadsFrom(v, src)) != 1 {
					t.Errorf("fan %d: node %d read %v from %d", fan, v, ws, src)
				}
				got++
			})
			if got != fan {
				t.Errorf("fan %d: node %d heard from %d sources", fan, v, got)
			}
		})
		if fan*n*16 >= n*n {
			switched = true
		}
		if c.SparseLinks() == switched {
			t.Fatalf("fan %d: sparse form = %v", fan, c.SparseLinks())
		}
	}
}
