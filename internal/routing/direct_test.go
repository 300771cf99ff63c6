package routing

import (
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"github.com/algebraic-clique/algclique/internal/clique"
)

// randPattern builds a random traffic pattern: some pairs idle, some small,
// some long enough to push Auto into the two-phase schedule.
func randPattern(rng *rand.Rand, n int) [][][]int64 {
	msgs := make([][][]int64, n)
	for src := range msgs {
		msgs[src] = make([][]int64, n)
		for dst := range msgs[src] {
			var l int
			switch rng.IntN(3) {
			case 0:
				l = 0
			case 1:
				l = rng.IntN(4)
			default:
				l = n + rng.IntN(3*n)
			}
			vec := make([]int64, l)
			for i := range vec {
				vec[i] = int64(src*1000000 + dst*1000 + i)
			}
			msgs[src][dst] = vec
		}
	}
	return msgs
}

// refLedger is the ledger the per-link reference schedule charges for a
// pattern under strategy: the direct schedule's rounds are its heaviest
// non-self link and its words the non-self total, the two-phase
// schedule's are MaxA+MaxB and TotalA+TotalB, and Auto takes two-phase
// exactly when that is fewer rounds.
func refLedger(n int, strategy Strategy, lens func(src, dst int) int64) (rounds, words int64) {
	c := refCosts(n, lens)
	if strategy == TwoPhase || strategy == Auto && c.MaxA+c.MaxB < c.Direct {
		return c.MaxA + c.MaxB, c.TotalA + c.TotalB
	}
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src != dst {
				words += lens(src, dst)
			}
		}
	}
	return c.Direct, words
}

// checkExchange runs msgs through Exchange on a fresh network of the given
// transport and requires exact delivery — idle pairs empty — and the
// reference ledger.
func checkExchange(t *testing.T, tr clique.Transport, strategy Strategy, msgs [][][]clique.Word) {
	t.Helper()
	n := len(msgs)
	net := clique.New(n, clique.WithTransport(tr))
	defer net.Close()
	in := Exchange(net, strategy, msgs)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if !slices.Equal(in[dst][src], msgs[src][dst]) {
				t.Fatalf("%v %v n=%d (%d→%d): delivered %v, sent %v", tr, strategy, n, src, dst, in[dst][src], msgs[src][dst])
			}
		}
	}
	rounds, words := refLedger(n, strategy, func(src, dst int) int64 { return int64(len(msgs[src][dst])) })
	if net.Rounds() != rounds || net.Words() != words {
		t.Fatalf("%v %v n=%d: charged %d rounds, %d words; reference %d, %d", tr, strategy, n, net.Rounds(), net.Words(), rounds, words)
	}
}

var strategies = []Strategy{Direct, TwoPhase, Auto}

// TestExchangePayloadMatchesExchange checks both faces of the one exchange
// body against the per-link reference schedule rather than against each
// other: Exchange delivers every vector exactly and charges the reference
// ledger under each strategy on the direct and wire networks, and
// ExchangePayload charges the reference ledger of its analytic lengths
// under three cost closures — a charge that is the element count passes
// the first and fails the other two.
func TestExchangePayloadMatchesExchange(t *testing.T) {
	for _, n := range []int{1, 2, 4, 7, 12, 25} {
		for trial := 0; trial < 4; trial++ {
			pays := randPattern(rand.New(rand.NewPCG(uint64(n), uint64(trial))), n)
			msgs := make([][][]clique.Word, n)
			for src := range pays {
				msgs[src] = make([][]clique.Word, n)
				for dst, vec := range pays[src] {
					for _, x := range vec {
						msgs[src][dst] = append(msgs[src][dst], clique.Word(x))
					}
				}
			}
			for _, tr := range []clique.Transport{clique.TransportDirect, clique.TransportWire} {
				for _, strategy := range strategies {
					checkExchange(t, tr, strategy, msgs)
				}
			}
		}
	}

	costs := []struct {
		name  string
		words func(elems int) int64
	}{
		{"one word per element", func(el int) int64 { return int64(el) }},
		{"two words per element", func(el int) int64 { return 2 * int64(el) }},
		{"packed, 64 elements per word", func(el int) int64 { return int64((el + 63) / 64) }},
	}
	for _, cost := range costs {
		for _, n := range []int{2, 4, 7, 12, 25} {
			for trial := 0; trial < 4; trial++ {
				pays := randPattern(rand.New(rand.NewPCG(uint64(n), uint64(trial))), n)
				lens := func(src, dst int) int64 {
					if k := len(pays[src][dst]); k > 0 {
						return cost.words(k)
					}
					return 0
				}
				for _, strategy := range strategies {
					net := clique.New(n)
					in := make([][][]int64, n)
					for i := range in {
						in[i] = make([][]int64, n)
					}
					ExchangePayload(net, strategy, NewScratch(), pays, cost.words, in)
					rounds, words := refLedger(n, strategy, lens)
					if net.Rounds() != rounds || net.Words() != words {
						t.Fatalf("%s %v n=%d trial %d: charged %d rounds, %d words; reference %d, %d",
							cost.name, strategy, n, trial, net.Rounds(), net.Words(), rounds, words)
					}
					for src := 0; src < n; src++ {
						for dst := 0; dst < n; dst++ {
							if len(pays[src][dst]) > 0 && !slices.Equal(in[dst][src], pays[src][dst]) {
								t.Fatalf("%s %v n=%d (%d→%d): delivered %v, sent %v", cost.name, strategy, n, src, dst, in[dst][src], pays[src][dst])
							}
						}
					}
					net.Close()
				}
			}
		}
	}
}

// FuzzExchange runs arbitrary traffic patterns at n ≤ 32 through Exchange:
// data[0] picks n, data[1] the strategy and the transport, and each further
// byte the word length of one ordered pair, in (src, dst) order. Delivery
// must be exact and the ledger the per-link reference's.
func FuzzExchange(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%32
		strategy := strategies[int(data[1])%3]
		tr := clique.TransportDirect
		if data[1]/3%2 == 1 {
			tr = clique.TransportWire
		}
		msgs := make([][][]clique.Word, n)
		for src := range msgs {
			msgs[src] = make([][]clique.Word, n)
		}
		for k, l := range data[2:min(len(data), 2+n*n)] {
			src, dst := k/n, k%n
			vec := make([]clique.Word, l)
			for i := range vec {
				vec[i] = clique.Word(src)<<40 | clique.Word(dst)<<20 | clique.Word(i)
			}
			msgs[src][dst] = vec
		}
		checkExchange(t, tr, strategy, msgs)
	})
}

// TestChargeAllGatherMatchesAllGather checks the analytic all-gather
// charge reproduces the real one's ledger for assorted length profiles.
func TestChargeAllGatherMatchesAllGather(t *testing.T) {
	profiles := [][]int64{
		{0, 0, 0, 0},
		{1, 0, 0, 0},
		{5, 0, 17, 3},
		{9, 9, 9, 9, 9},
		{100, 1, 0, 2, 50, 3, 3},
	}
	for _, lens := range profiles {
		n := len(lens)
		wnet := clique.New(n)
		vecs := make([][]clique.Word, n)
		for v, l := range lens {
			vecs[v] = make([]clique.Word, l)
			for i := range vecs[v] {
				vecs[v][i] = clique.Word(v*1000 + i)
			}
		}
		AllGather(wnet, vecs)

		dnet := clique.New(n)
		ChargeAllGather(dnet, lens)

		if ws, ds := wnet.Stats(), dnet.Stats(); !reflect.DeepEqual(ws, ds) {
			t.Fatalf("lens %v: ledger diverged: wire %+v, direct %+v", lens, ws, ds)
		}
		wnet.Close()
		dnet.Close()
	}
}

// refTwoPhaseLinkLoads is the per-link reference implementation of the
// two-phase schedule: loadA[src*n+inter] words ride the phase-A link
// src→inter and loadB[inter*n+dst] the phase-B link inter→dst, including
// the free self-links. It is the definition of the schedule: sender src's
// words, in destination order, ride intermediaries (stripeOffset(src)+p)
// mod n in turn, and each is forwarded from there to its destination.
// TwoPhaseCosts, and with it every exchange's charge, must reduce to its
// maxima and non-self totals.
func refTwoPhaseLinkLoads(n int, lens func(src, dst int) int64) (loadA, loadB []int64) {
	loadA, loadB = make([]int64, n*n), make([]int64, n*n)
	for src := 0; src < n; src++ {
		off := stripeOffset(src, n)
		var flat int64
		for dst := 0; dst < n; dst++ {
			l := lens(src, dst)
			if l == 0 {
				continue
			}
			laps := l / int64(n)
			rem := int(l % int64(n))
			if laps > 0 {
				for inter := 0; inter < n; inter++ {
					loadB[inter*n+dst] += laps
				}
			}
			start := (off + int(flat%int64(n))) % n
			for j := 0; j < rem; j++ {
				inter := start + j
				if inter >= n {
					inter -= n
				}
				loadB[inter*n+dst]++
			}
			flat += l
		}
		laps := flat / int64(n)
		rem := int(flat % int64(n))
		if laps > 0 {
			for inter := 0; inter < n; inter++ {
				loadA[src*n+inter] += laps
			}
		}
		for j := 0; j < rem; j++ {
			inter := off + j
			if inter >= n {
				inter -= n
			}
			loadA[src*n+inter]++
		}
	}
	return loadA, loadB
}

// refCosts reduces the reference per-link loads of a pattern to the
// aggregates TwoPhaseCosts must return, with the pattern's heaviest
// off-node sender and receiver.
func refCosts(n int, lens func(src, dst int) int64) Costs {
	loadA, loadB := refTwoPhaseLinkLoads(n, lens)
	var c Costs
	in := make([]int64, n)
	for src := 0; src < n; src++ {
		var out int64
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			i := src*n + dst
			c.MaxA, c.MaxB = max(c.MaxA, loadA[i]), max(c.MaxB, loadB[i])
			c.TotalA += loadA[i]
			c.TotalB += loadB[i]
			c.Direct = max(c.Direct, lens(src, dst))
			out += lens(src, dst)
			in[dst] += lens(src, dst)
		}
		c.Out = max(c.Out, out)
	}
	for _, l := range in {
		c.In = max(c.In, l)
	}
	return c
}

// linksOf lists a pattern's links as TwoPhaseCosts takes them.
func linksOf(n int, lens func(src, dst int) int64) []Link {
	var links []Link
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if l := lens(src, dst); l > 0 {
				links = append(links, Link{Src: int32(src), Dst: int32(dst), Words: l})
			}
		}
	}
	return links
}

// TestTwoPhaseLinkLoadsMatchSchedule cross-checks TwoPhaseCosts against the
// per-link reference loads: on dense random patterns (at n = 41 enough
// messages reach one destination for the endpoint sweep), and on sparse
// ones — a few links per destination, lengths on both sides of n, so arcs
// overlap, wrap past node n-1 and land on their own destination, counted
// at their candidates. One Scratch serves every pattern, so no call may
// read another's leftovers.
func TestTwoPhaseLinkLoadsMatchSchedule(t *testing.T) {
	sc := NewScratch()
	check := func(name string, n int, lens func(src, dst int) int64) {
		t.Helper()
		want := refCosts(n, lens)
		for _, s := range []*Scratch{nil, sc} {
			if got := TwoPhaseCosts(n, s, linksOf(n, lens)); got != want {
				t.Fatalf("%s n=%d: TwoPhaseCosts %+v, per-link reference %+v", name, n, got, want)
			}
		}
	}
	for _, n := range []int{3, 8, 15, 41} {
		rng := rand.New(rand.NewPCG(99, uint64(n)))
		pays := randPattern(rng, n)
		check("dense", n, func(src, dst int) int64 { return int64(len(pays[src][dst])) })
	}
	for _, n := range []int{2, 5, 16, 41, 97} {
		for trial := 0; trial < 20; trial++ {
			rng := rand.New(rand.NewPCG(uint64(n), uint64(trial)))
			lens := make([]int64, n*n)
			for k := rng.IntN(3 * n); k > 0; k-- {
				lens[rng.IntN(n)*n+rng.IntN(n)] = 1 + rng.Int64N(int64(2*n))
			}
			check("sparse", n, func(src, dst int) int64 { return lens[src*n+dst] })
		}
	}
}
