package clique

import (
	"errors"
	"testing"
)

// ringExchange runs one all-to-all exchange where node v sends v*100+dst to
// every dst, flushes, and returns what each node received (0 = nothing).
func ringExchange(c *Network) [][]int {
	n := c.N()
	for v := 0; v < n; v++ {
		for dst := 0; dst < n; dst++ {
			if dst != v {
				c.Send(v, dst, Word(v*100+dst))
			}
		}
	}
	mail := c.Flush()
	got := make([][]int, n)
	for dst := 0; dst < n; dst++ {
		got[dst] = make([]int, n)
		for src := 0; src < n; src++ {
			ws := mail.From(dst, src)
			for range ws {
				got[dst][src]++
			}
		}
	}
	return got
}

func TestFaultInjectorDeterministic(t *testing.T) {
	plan := FaultPlan{Seed: 7, DropProb: 0.2, DupProb: 0.2, CorruptProb: 0.2}
	run := func() ([][]int, FaultStats) {
		c := New(8)
		fi := NewFaultInjector(plan)
		c.SetFaultInjector(fi)
		got := ringExchange(c)
		return got, fi.Stats()
	}
	g1, s1 := run()
	g2, s2 := run()
	if s1 != s2 {
		t.Fatalf("fault ledger differs across identical runs: %+v vs %+v", s1, s2)
	}
	if s1.Fired() == 0 {
		t.Fatalf("plan %+v injected nothing", plan)
	}
	for dst := range g1 {
		for src := range g1[dst] {
			if g1[dst][src] != g2[dst][src] {
				t.Fatalf("delivery [%d][%d] differs across identical runs: %d vs %d",
					dst, src, g1[dst][src], g2[dst][src])
			}
		}
	}
}

func TestFaultInjectorAdvanceChangesDraws(t *testing.T) {
	c := New(8)
	fi := NewFaultInjector(FaultPlan{Seed: 11, DropProb: 0.3})
	c.SetFaultInjector(fi)
	first := ringExchange(c)
	before := fi.Stats()
	fi.Advance()
	c.Reset()
	c.SetFaultInjector(fi)
	second := ringExchange(c)
	if fi.Stats() == before {
		t.Fatalf("Advance changed nothing: %+v", before)
	}
	same := true
	for dst := range first {
		for src := range first[dst] {
			if first[dst][src] != second[dst][src] {
				same = false
			}
		}
	}
	if same {
		t.Fatal("attempt 0 and attempt 1 dropped identical links; draws are not re-keyed")
	}
}

func TestFaultDropWithholdsDelivery(t *testing.T) {
	EachForm(t, 4, func(t *testing.T, c *Network) {
		fi := NewFaultInjector(FaultPlan{Seed: 3, DropProb: 1})
		c.SetFaultInjector(fi)
		got := ringExchange(c)
		for dst := range got {
			for src := range got[dst] {
				if src != dst && got[dst][src] != 0 {
					t.Fatalf("delivery [%d][%d] survived DropProb=1", dst, src)
				}
			}
		}
		// The words were sent: the charge is unchanged by the drops.
		if c.Rounds() != 1 || c.Words() != 12 {
			t.Fatalf("drops perturbed the ledger: rounds=%d words=%d, want 1/12", c.Rounds(), c.Words())
		}
		if fi.Stats().Dropped != 12 {
			t.Fatalf("Dropped = %d, want 12", fi.Stats().Dropped)
		}
	})
}

func TestFaultDuplicateDoublesDelivery(t *testing.T) {
	EachForm(t, 4, func(t *testing.T, c *Network) {
		fi := NewFaultInjector(FaultPlan{Seed: 3, DupProb: 1})
		c.SetFaultInjector(fi)
		got := ringExchange(c)
		for dst := range got {
			for src := range got[dst] {
				if src != dst && got[dst][src] != 2 {
					t.Fatalf("delivery [%d][%d] = %d words, want 2 under DupProb=1", dst, src, got[dst][src])
				}
			}
		}
		if c.Rounds() != 1 {
			t.Fatalf("duplicates perturbed the round ledger: %d", c.Rounds())
		}
	})
}

func TestFaultCorruptFlipsWord(t *testing.T) {
	EachForm(t, 4, func(t *testing.T, c *Network) {
		fi := NewFaultInjector(FaultPlan{Seed: 9, CorruptProb: 1})
		c.SetFaultInjector(fi)
		for dst := 1; dst < 4; dst++ {
			c.Send(0, dst, 42)
		}
		mail := c.Flush()
		corrupted := 0
		for dst := 1; dst < 4; dst++ {
			ws := mail.From(dst, 0)
			if len(ws) != 1 {
				t.Fatalf("dst %d received %d words, want 1", dst, len(ws))
			}
			if ws[0] != 42 {
				corrupted++
			}
		}
		if corrupted != 3 {
			t.Fatalf("%d of 3 deliveries corrupted under CorruptProb=1", corrupted)
		}
		if fi.Stats().Corrupted != 3 {
			t.Fatalf("Corrupted = %d, want 3", fi.Stats().Corrupted)
		}
	})
}

func TestFaultPayloadCorrupter(t *testing.T) {
	EachForm(t, 2, func(t *testing.T, c *Network) {
		fi := NewFaultInjector(FaultPlan{Seed: 5, CorruptProb: 1}, CorruptInt64s)
		c.SetFaultInjector(fi)
		data := []int64{1, 2, 3}
		c.SendPayload(0, 1, 3, &data)
		mail := c.Flush()
		ps := mail.PayloadsFrom(1, 0)
		if len(ps) != 1 {
			t.Fatalf("got %d payloads, want 1", len(ps))
		}
		got := *(ps[0].(*[]int64))
		if got[0] == 1 && got[1] == 2 && got[2] == 3 {
			t.Fatal("payload survived CorruptProb=1 with a registered corrupter")
		}
		if fi.Stats().Corrupted != 1 {
			t.Fatalf("Corrupted = %d, want 1", fi.Stats().Corrupted)
		}
	})
}

func TestFaultCrashStopsSends(t *testing.T) {
	c := New(4)
	fi := NewFaultInjector(FaultPlan{Seed: 1, CrashAtRound: 1, CrashNode: 2})
	c.SetFaultInjector(fi)
	ringExchange(c) // round 1: the crash arms during this flush's charge
	if !fi.Crashed() {
		t.Fatal("node 2 did not crash at round 1")
	}
	// Healthy nodes keep sending; the crashed node's send panics typed.
	c.Send(0, 1, 7)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("send from crashed node did not panic")
		}
		err, ok := AsAbort(r)
		if !ok {
			t.Fatalf("crash panic %v is not a controlled abort", r)
		}
		var fe *FaultError
		if !errors.As(err, &fe) || fe.Kind != FaultCrash || fe.Node != 2 {
			t.Fatalf("err = %v, want FaultCrash on node 2", err)
		}
	}()
	c.Send(2, 0, 7)
}

func TestFaultCrashWithholdsPendingDeliveries(t *testing.T) {
	c := New(3)
	fi := NewFaultInjector(FaultPlan{Seed: 1, CrashAtRound: 1, CrashNode: 0})
	c.SetFaultInjector(fi)
	ringExchange(c) // crashes node 0 at round 1
	// Traffic enqueued by node 0 before the crash check runs at the next
	// flush is withheld; the healthy link delivers.
	l := c.linkFor(0, 1) // bypass the send-side panic
	l.q = append(l.q, 9)
	c.Send(2, 1, 8)
	mail := c.Flush()
	if ws := mail.From(1, 0); ws != nil {
		t.Fatalf("delivery from crashed node survived: %v", ws)
	}
	if ws := mail.From(1, 2); len(ws) != 1 || ws[0] != 8 {
		t.Fatalf("healthy delivery perturbed: %v", ws)
	}
}

func TestFaultStraggleStretchesRounds(t *testing.T) {
	c := New(4)
	fi := NewFaultInjector(FaultPlan{Seed: 2, StraggleProb: 1, StraggleSkew: 5})
	c.SetFaultInjector(fi)
	ringExchange(c)
	if c.Rounds() != 6 { // 1 for the exchange + 5 skew
		t.Fatalf("rounds = %d, want 6", c.Rounds())
	}
	st := fi.Stats()
	if st.Straggles != 1 || st.SkewRounds != 5 {
		t.Fatalf("straggle ledger %+v, want 1 event / 5 rounds", st)
	}
}

func TestFaultMaxFaultsCapsStorm(t *testing.T) {
	EachForm(t, 16, func(t *testing.T, c *Network) {
		fi := NewFaultInjector(FaultPlan{Seed: 4, DropProb: 1, MaxFaults: 3})
		c.SetFaultInjector(fi)
		ringExchange(c)
		if got := fi.Stats().Dropped; got != 3 {
			t.Fatalf("Dropped = %d, want the MaxFaults cap of 3", got)
		}
	})
}

func TestFaultPanicAtFlushIsUntyped(t *testing.T) {
	c := New(4)
	fi := NewFaultInjector(FaultPlan{Seed: 6, PanicAtFlush: 1})
	c.SetFaultInjector(fi)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("PanicAtFlush did not panic")
		}
		if _, ok := AsAbort(r); ok {
			t.Fatalf("injected panic %v must be untyped (it simulates a bug, not a modelled fault)", r)
		}
		if !fi.PanicInjected() {
			t.Fatal("PanicInjected not recorded")
		}
	}()
	c.Send(0, 1, 1)
	c.Flush()
}

func TestFaultStatsSurfaceInNetworkStats(t *testing.T) {
	c := New(4)
	c.SetFaultInjector(NewFaultInjector(FaultPlan{Seed: 8, DropProb: 1}))
	ringExchange(c)
	if st := c.Stats(); st.Faults.Dropped == 0 {
		t.Fatalf("Stats().Faults empty after injected drops: %+v", st.Faults)
	}
	c.SetFaultInjector(nil)
	if st := c.Stats(); st.Faults != (FaultStats{}) {
		t.Fatalf("disarmed network still reports faults: %+v", st.Faults)
	}
}

func TestFaultZeroPlanIsTransparent(t *testing.T) {
	clean := New(8)
	cleanGot := ringExchange(clean)
	armed := New(8)
	armed.SetFaultInjector(NewFaultInjector(FaultPlan{Seed: 123}))
	armedGot := ringExchange(armed)
	if clean.Rounds() != armed.Rounds() || clean.Words() != armed.Words() {
		t.Fatalf("zero plan perturbed the ledger: %d/%d vs %d/%d",
			clean.Rounds(), clean.Words(), armed.Rounds(), armed.Words())
	}
	for dst := range cleanGot {
		for src := range cleanGot[dst] {
			if cleanGot[dst][src] != armedGot[dst][src] {
				t.Fatalf("zero plan perturbed delivery [%d][%d]", dst, src)
			}
		}
	}
}

func TestForEachPropagatesWorkerPanic(t *testing.T) {
	c := New(8, WithWorkers(4))
	defer c.Close()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("worker panic did not propagate to the ForEach caller")
		} else if s, ok := r.(string); !ok || s != "boom" {
			t.Fatalf("propagated panic = %v, want the original value", r)
		}
	}()
	c.ForEach(func(v int) {
		if v == 5 {
			panic("boom")
		}
	})
}

func TestRunLocalPropagatesWorkerPanic(t *testing.T) {
	p := NewLocalPool(4)
	defer p.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic did not propagate to the RunLocal caller")
		}
	}()
	p.RunLocal(16, func(task int) {
		if task == 11 {
			panic("boom")
		}
	})
}

func TestForEachUsableAfterWorkerPanic(t *testing.T) {
	c := New(8, WithWorkers(4))
	defer c.Close()
	func() {
		defer func() { recover() }()
		c.ForEach(func(v int) { panic("first") })
	}()
	var mu [8]bool
	c.ForEach(func(v int) { mu[v] = true })
	for v, ran := range mu {
		if !ran {
			t.Fatalf("task %d did not run after a prior panicking fan-out", v)
		}
	}
}

func TestDropPendingClearsTrafficKeepsAccounting(t *testing.T) {
	c := New(4)
	ringExchange(c)
	rounds, words := c.Rounds(), c.Words()
	c.Send(0, 1, 1)
	c.Send(0, 2, 2)
	c.DropPending()
	if got := c.PendingWords(0); got != 0 {
		t.Fatalf("pending words after DropPending = %d", got)
	}
	if c.Rounds() != rounds || c.Words() != words {
		t.Fatalf("DropPending touched accounting: %d/%d vs %d/%d", c.Rounds(), c.Words(), rounds, words)
	}
	// The cleared traffic must not leak into the next exchange.
	c.Send(2, 1, 7)
	mail := c.Flush()
	if ws := mail.From(1, 0); ws != nil {
		t.Fatalf("dropped traffic leaked into the next flush: %v", ws)
	}
	if ws := mail.From(1, 2); len(ws) != 1 || ws[0] != 7 {
		t.Fatalf("post-DropPending delivery wrong: %v", ws)
	}
}
