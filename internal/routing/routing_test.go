package routing_test

import (
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/routing"
)

func emptyMsgs(n int) [][][]clique.Word {
	m := make([][][]clique.Word, n)
	for i := range m {
		m[i] = make([][]clique.Word, n)
	}
	return m
}

func randomMsgs(rng *rand.Rand, n, maxLen int) [][][]clique.Word {
	m := emptyMsgs(n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			l := rng.IntN(maxLen + 1)
			if l == 0 {
				continue
			}
			vec := make([]clique.Word, l)
			for i := range vec {
				vec[i] = rng.Uint64()
			}
			m[s][d] = vec
		}
	}
	return m
}

func assertDelivered(t *testing.T, msgs, in [][][]clique.Word) {
	t.Helper()
	n := len(msgs)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			want := msgs[s][d]
			got := in[d][s]
			if len(want) != len(got) {
				t.Fatalf("(%d→%d): delivered %d of %d words", s, d, len(got), len(want))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("(%d→%d) word %d: got %d want %d (order not preserved?)", s, d, i, got[i], want[i])
				}
			}
		}
	}
}

func TestExchangeStrategiesDeliverExactly(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	for _, strat := range []routing.Strategy{routing.Direct, routing.TwoPhase, routing.Auto} {
		for trial := 0; trial < 10; trial++ {
			n := 2 + rng.IntN(12)
			msgs := randomMsgs(rng, n, 6)
			net := clique.New(n)
			in := routing.Exchange(net, strat, msgs)
			assertDelivered(t, msgs, in)
		}
	}
}

// TestExchangeUnderFaults checks that a fault plan still reaches
// Exchange's by-reference deliveries on both schedules: a dropped link
// delivers nothing, a corrupted one its vector with exactly one bit
// flipped (through the engines' word-row corrupter), self-pairs are never
// touched, and the ledger is the fault-free exchange's.
func TestExchangeUnderFaults(t *testing.T) {
	const n = 6
	for _, strat := range []routing.Strategy{routing.Direct, routing.TwoPhase} {
		for _, plan := range []clique.FaultPlan{{Seed: 1, DropProb: 1}, {Seed: 2, CorruptProb: 1}} {
			sent := randomMsgs(rand.New(rand.NewPCG(4, 4)), n, 6)
			clean := clique.New(n)
			routing.Exchange(clean, strat, sent)
			msgs := randomMsgs(rand.New(rand.NewPCG(4, 4)), n, 6)
			net := clique.New(n)
			net.SetFaultInjector(clique.NewFaultInjector(plan, ccmm.PayloadCorrupters...))
			in := routing.Exchange(net, strat, msgs)
			if net.Rounds() != clean.Rounds() || net.Words() != clean.Words() {
				t.Fatalf("%v %+v: charged %d rounds, %d words; fault-free %d, %d",
					strat, plan, net.Rounds(), net.Words(), clean.Rounds(), clean.Words())
			}
			for s := 0; s < n; s++ {
				for d := 0; d < n; d++ {
					got, want := in[d][s], sent[s][d]
					switch {
					case s == d || len(want) == 0:
						if !slices.Equal(got, want) {
							t.Fatalf("%v %+v (%d→%d): untouched pair delivered %v, sent %v", strat, plan, s, d, got, want)
						}
					case plan.DropProb > 0:
						if len(got) != 0 {
							t.Fatalf("%v %+v (%d→%d): dropped link delivered %v", strat, plan, s, d, got)
						}
					default:
						flipped := 0
						for i := range want {
							flipped += bits.OnesCount64(uint64(got[i] ^ want[i]))
						}
						if len(got) != len(want) || flipped != 1 {
							t.Fatalf("%v %+v (%d→%d): delivered %v for %v, want one flipped bit", strat, plan, s, d, got, want)
						}
					}
				}
			}
			clean.Close()
			net.Close()
		}
	}
}

func TestTwoPhaseBeatsDirectOnSkewedTraffic(t *testing.T) {
	// One node sends L words to a single destination: direct needs L
	// rounds, two-phase ~2*ceil(L/n)+O(1).
	n := 16
	L := 160
	msgs := emptyMsgs(n)
	vec := make([]clique.Word, L)
	for i := range vec {
		vec[i] = clique.Word(i)
	}
	msgs[3][11] = vec

	netD := clique.New(n)
	routing.Exchange(netD, routing.Direct, msgs)
	if netD.Rounds() != int64(L) {
		t.Errorf("direct rounds = %d, want %d", netD.Rounds(), L)
	}

	netT := clique.New(n)
	in := routing.Exchange(netT, routing.TwoPhase, msgs)
	assertDelivered(t, msgs, in)
	// Phase A: ceil(L/n) = 10, phase B similar; allow small slack.
	if netT.Rounds() > int64(3*L/n+4) {
		t.Errorf("two-phase rounds = %d, want ≈ %d", netT.Rounds(), 2*L/n)
	}

	netA := clique.New(n)
	routing.Exchange(netA, routing.Auto, msgs)
	if netA.Rounds() != netT.Rounds() {
		t.Errorf("auto picked %d rounds, two-phase achieves %d", netA.Rounds(), netT.Rounds())
	}
}

func TestDirectBeatsTwoPhaseOnBalancedTraffic(t *testing.T) {
	// Uniform single-word all-to-all: direct is 1 round; two-phase pays two hops.
	n := 8
	msgs := emptyMsgs(n)
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				msgs[s][d] = []clique.Word{clique.Word(s*n + d)}
			}
		}
	}
	netA := clique.New(n)
	in := routing.Exchange(netA, routing.Auto, msgs)
	assertDelivered(t, msgs, in)
	if netA.Rounds() != 1 {
		t.Errorf("auto on balanced traffic = %d rounds, want 1 (direct)", netA.Rounds())
	}
}

func TestExchangeHRelationBound(t *testing.T) {
	// Property: for random traffic where every node sends and receives at
	// most h words, Auto completes within ceil(h/n)*2 + 3 rounds (the
	// Lenzen-style guarantee with our constants) — and never worse than
	// direct.
	rng := rand.New(rand.NewPCG(2, 2))
	for trial := 0; trial < 10; trial++ {
		n := 8 + rng.IntN(8)
		h := n * (1 + rng.IntN(4))
		// Build a random h-relation: repeatedly add unit messages keeping
		// per-node send/receive budgets.
		sent := make([]int, n)
		recv := make([]int, n)
		msgs := emptyMsgs(n)
		for tries := 0; tries < 50*n; tries++ {
			s, d := rng.IntN(n), rng.IntN(n)
			if s == d || sent[s] >= h || recv[d] >= h {
				continue
			}
			msgs[s][d] = append(msgs[s][d], rng.Uint64())
			sent[s]++
			recv[d]++
		}
		net := clique.New(n)
		in := routing.Exchange(net, routing.Auto, msgs)
		assertDelivered(t, msgs, in)
		bound := int64(2*((h+n-1)/n) + 3)
		if net.Rounds() > bound {
			t.Errorf("n=%d h=%d: %d rounds exceeds h-relation bound %d", n, h, net.Rounds(), bound)
		}
	}
}

func TestExchangeEmptyTraffic(t *testing.T) {
	net := clique.New(5)
	in := routing.Exchange(net, routing.Auto, emptyMsgs(5))
	if net.Rounds() != 0 {
		t.Errorf("empty exchange charged %d rounds", net.Rounds())
	}
	for d := range in {
		for s := range in[d] {
			if len(in[d][s]) != 0 {
				t.Error("phantom words delivered")
			}
		}
	}
}

func TestExchangeSelfMessagesFree(t *testing.T) {
	n := 4
	msgs := emptyMsgs(n)
	msgs[2][2] = []clique.Word{1, 2, 3, 4, 5}
	for _, strat := range []routing.Strategy{routing.Direct, routing.TwoPhase} {
		net := clique.New(n)
		in := routing.Exchange(net, strat, msgs)
		assertDelivered(t, msgs, in)
		// Direct: self messages are free. Two-phase may route them through
		// intermediaries (cost ≤ 2) because striping is oblivious to content.
		if strat == routing.Direct && net.Rounds() != 0 {
			t.Errorf("%v: self traffic charged %d rounds", strat, net.Rounds())
		}
	}
}

func TestExchangePanicsOnBadShape(t *testing.T) {
	net := clique.New(3)
	defer func() {
		if recover() == nil {
			t.Error("no panic on wrong shape")
		}
	}()
	routing.Exchange(net, routing.Auto, emptyMsgs(2))
}

func TestAllGatherEveryoneLearnsEverything(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 3))
	for trial := 0; trial < 10; trial++ {
		n := 2 + rng.IntN(10)
		vecs := make([][]clique.Word, n)
		var total int
		for v := range vecs {
			l := rng.IntN(2 * n)
			vecs[v] = make([]clique.Word, l)
			for i := range vecs[v] {
				vecs[v][i] = rng.Uint64()
			}
			total += l
		}
		net := clique.New(n)
		all := routing.AllGather(net, vecs)
		for v := range vecs {
			if len(all[v]) != len(vecs[v]) {
				t.Fatalf("node %d vector truncated", v)
			}
			for i := range vecs[v] {
				if all[v][i] != vecs[v][i] {
					t.Fatalf("node %d word %d corrupted", v, i)
				}
			}
		}
		chunk := (total + n - 1) / n
		bound := int64(2*chunk + 2)
		if net.Rounds() > bound {
			t.Errorf("n=%d K=%d: AllGather took %d rounds, bound %d", n, total, net.Rounds(), bound)
		}
		if total > 0 && net.Rounds() < 1 {
			t.Error("AllGather moved words in no round")
		}
	}
}

func TestAllGatherEmpty(t *testing.T) {
	net := clique.New(4)
	all := routing.AllGather(net, make([][]clique.Word, 4))
	if net.Rounds() != 0 {
		t.Errorf("empty AllGather = %d rounds, want 0 (the lengths are the caller's)", net.Rounds())
	}
	for _, v := range all {
		if len(v) != 0 {
			t.Error("phantom words")
		}
	}
}

func TestStrategyString(t *testing.T) {
	if routing.Auto.String() != "auto" || routing.Direct.String() != "direct" ||
		routing.TwoPhase.String() != "two-phase" {
		t.Error("Strategy.String broken")
	}
	if routing.Strategy(99).String() == "" {
		t.Error("unknown strategy should still format")
	}
}
