package clique_test

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"

	"github.com/algebraic-clique/algclique/internal/clique"
)

func TestFlushChargesMaxLinkLoad(t *testing.T) {
	c := clique.New(4)
	// Link (0,1) carries 3 words, (2,3) carries 1: cost is 3 rounds.
	c.Send(0, 1, 10)
	c.Send(0, 1, 11)
	c.Send(0, 1, 12)
	c.Send(2, 3, 99)
	mail := c.Flush()
	if got := c.Rounds(); got != 3 {
		t.Errorf("Rounds = %d, want 3", got)
	}
	if got := c.Words(); got != 4 {
		t.Errorf("Words = %d, want 4", got)
	}
	want := []clique.Word{10, 11, 12}
	got := mail.From(1, 0)
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("mail.From(1,0) = %v, want %v", got, want)
	}
	if mail.From(3, 2)[0] != 99 {
		t.Error("word on (2,3) lost")
	}
	if mail.From(1, 2) != nil {
		t.Error("phantom delivery")
	}
}

func TestFlushIsExactlyOnce(t *testing.T) {
	c := clique.New(3)
	c.Send(0, 2, 7)
	first := c.Flush()
	if len(first.From(2, 0)) != 1 {
		t.Fatal("first flush lost the word")
	}
	second := c.Flush()
	if second.From(2, 0) != nil {
		t.Error("second flush re-delivered")
	}
	if c.Rounds() != 1 {
		t.Errorf("empty flush charged rounds: %d", c.Rounds())
	}
}

func TestSelfDeliveryIsFree(t *testing.T) {
	c := clique.New(2)
	c.Send(0, 0, 42)
	mail := c.Flush()
	if c.Rounds() != 0 || c.Words() != 0 {
		t.Errorf("self delivery charged rounds=%d words=%d", c.Rounds(), c.Words())
	}
	if got := mail.From(0, 0); len(got) != 1 || got[0] != 42 {
		t.Errorf("self delivery lost word: %v", got)
	}
}

func TestSendVecCopies(t *testing.T) {
	c := clique.New(2)
	buf := []clique.Word{1, 2, 3}
	c.SendVec(0, 1, buf)
	buf[0] = 99
	mail := c.Flush()
	if got := mail.From(1, 0); got[0] != 1 {
		t.Errorf("SendVec aliased caller buffer: %v", got)
	}
}

func TestBroadcastCost(t *testing.T) {
	n := 5
	c := clique.New(n)
	vals := make([]clique.Word, n)
	for i := range vals {
		vals[i] = clique.Word(i * i)
	}
	got := c.BroadcastWord(vals)
	if c.Rounds() != 1 {
		t.Errorf("single-word broadcast cost %d rounds, want 1", c.Rounds())
	}
	for i, v := range got {
		if v != clique.Word(i*i) {
			t.Errorf("broadcast value %d corrupted", i)
		}
	}
	vecs := make([][]clique.Word, n)
	for i := range vecs {
		vecs[i] = make([]clique.Word, i) // node i broadcasts i words
	}
	c.Broadcast(vecs)
	if c.Rounds() != 1+int64(n-1) {
		t.Errorf("vector broadcast cost %d total rounds, want %d", c.Rounds(), 1+n-1)
	}
}

// TestBroadcastNetworkRound pins one broadcast round of the broadcast
// model: one word from each node to all n−1 others costs one round and
// n·(n−1) words, and every node's word arrives intact.
func TestBroadcastNetworkRound(t *testing.T) {
	c := clique.New(4)
	got := c.BroadcastWord([]clique.Word{1, 2, 3, 4})
	if c.Rounds() != 1 {
		t.Errorf("Rounds = %d, want 1", c.Rounds())
	}
	if c.Words() != 4*3 {
		t.Errorf("Words = %d, want 12", c.Words())
	}
	for i, w := range got {
		if w != clique.Word(i+1) {
			t.Errorf("value %d corrupted", i)
		}
	}
}

// TestBroadcastNetworkPublish: publishing vectors of unequal length costs
// the longest vector's length in rounds and each vector's length times
// n−1 in words, and hands every node's vector back unchanged — the empty
// one included.
func TestBroadcastNetworkPublish(t *testing.T) {
	c := clique.New(3)
	all := c.Broadcast([][]clique.Word{{1, 2, 3}, {4}, nil})
	if c.Rounds() != 3 {
		t.Errorf("Publish cost %d rounds, want max length 3", c.Rounds())
	}
	if c.Words() != (3+1)*2 {
		t.Errorf("Publish cost %d words, want 8", c.Words())
	}
	if len(all) != 3 || len(all[0]) != 3 || all[0][2] != 3 || all[1][0] != 4 || len(all[2]) != 0 {
		t.Error("published vectors corrupted")
	}
}

// TestBroadcastNetworkPanics: a misshapen broadcast panics before it
// charges anything, so the ledger of a recovered caller is unchanged.
func TestBroadcastNetworkPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(c *clique.Network)
	}{
		{"word short", func(c *clique.Network) { c.BroadcastWord([]clique.Word{1}) }},
		{"word long", func(c *clique.Network) { c.BroadcastWord(make([]clique.Word, 3)) }},
		{"vectors short", func(c *clique.Network) { c.Broadcast([][]clique.Word{{1, 2}}) }},
		{"vectors long", func(c *clique.Network) { c.Broadcast(make([][]clique.Word, 3)) }},
	}
	for _, tc := range cases {
		c := clique.New(2)
		c.Phase("p")
		c.BroadcastWord([]clique.Word{5, 6})
		before := c.Stats()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.f(c)
		}()
		if after := c.Stats(); !reflect.DeepEqual(after, before) {
			t.Errorf("%s: ledger moved by a refused broadcast: %+v → %+v", tc.name, before, after)
		}
	}
}

func TestPhaseAccounting(t *testing.T) {
	c := clique.New(3)
	c.Phase("first")
	c.Send(0, 1, 1)
	c.Send(0, 1, 2)
	c.Flush()
	c.Phase("second")
	c.BroadcastWord([]clique.Word{1, 2, 3})
	st := c.Stats()
	if len(st.Phases) != 2 {
		t.Fatalf("got %d phases", len(st.Phases))
	}
	if st.Phases[0].Name != "first" || st.Phases[0].Rounds != 2 {
		t.Errorf("phase 0 = %+v", st.Phases[0])
	}
	if st.Phases[1].Name != "second" || st.Phases[1].Rounds != 1 {
		t.Errorf("phase 1 = %+v", st.Phases[1])
	}
	if st.Rounds != 3 || st.Flushes != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestMailEachOrdersBySource(t *testing.T) {
	c := clique.New(4)
	c.Send(3, 0, 30)
	c.Send(1, 0, 10)
	c.Send(2, 0, 20)
	mail := c.Flush()
	var srcs []int
	mail.Each(0, func(src int, words []clique.Word) {
		srcs = append(srcs, src)
	})
	if len(srcs) != 3 || srcs[0] != 1 || srcs[1] != 2 || srcs[2] != 3 {
		t.Errorf("Each order = %v, want [1 2 3]", srcs)
	}
}

func TestForEachVisitsAllOnce(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		c := clique.New(100, clique.WithWorkers(workers))
		var count atomic.Int64
		visited := make([]atomic.Bool, 100)
		c.ForEach(func(v int) {
			if visited[v].Swap(true) {
				t.Errorf("node %d visited twice", v)
			}
			count.Add(1)
		})
		if count.Load() != 100 {
			t.Errorf("workers=%d visited %d nodes", workers, count.Load())
		}
	}
}

func TestForEachConcurrentSends(t *testing.T) {
	// Each node sends from itself concurrently; flush must see all words.
	n := 64
	c := clique.New(n, clique.WithWorkers(8))
	c.ForEach(func(v int) {
		for dst := 0; dst < n; dst++ {
			c.Send(v, dst, clique.Word(v))
		}
	})
	mail := c.Flush()
	if c.Rounds() != 1 {
		t.Errorf("all-to-all single word cost %d rounds, want 1", c.Rounds())
	}
	for dst := 0; dst < n; dst++ {
		for src := 0; src < n; src++ {
			if got := mail.From(dst, src); len(got) != 1 || got[0] != clique.Word(src) {
				t.Fatalf("delivery (%d→%d) = %v", src, dst, got)
			}
		}
	}
}

func TestRoundLimitPanics(t *testing.T) {
	c := clique.New(2, clique.WithRoundLimit(2))
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected round-limit panic")
		}
		err, ok := r.(*clique.RoundLimitError)
		if !ok {
			t.Fatalf("panic value %T, want *RoundLimitError", r)
		}
		var target *clique.RoundLimitError
		if !errors.As(error(err), &target) || target.Limit != 2 {
			t.Errorf("unexpected error: %v", err)
		}
	}()
	for i := 0; i < 3; i++ {
		c.Send(0, 1, 1)
	}
	c.Flush()
}

func TestMisusePanics(t *testing.T) {
	cases := []struct {
		name string
		f    func()
	}{
		{"bad size", func() { clique.New(0) }},
		{"send src", func() { clique.New(2).Send(-1, 0, 1) }},
		{"send dst", func() { clique.New(2).Send(0, 2, 1) }},
		{"broadcast len", func() { clique.New(2).BroadcastWord([]clique.Word{1}) }},
		{"broadcast vec len", func() { clique.New(2).Broadcast(make([][]clique.Word, 3)) }},
		{"pending range", func() { clique.New(2).PendingWords(5) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.f()
		})
	}
}

// TestRandomTrafficConservation holds the mailbox against a reference, in
// each storage form: random words (Send) and payloads (SendPayload) on
// random links are delivered exactly once and in FIFO order through every
// read path — From, PayloadsFrom, Each, EachPayload — an unsent (dst, src)
// pair reads nil, and the flush charges the maximum and the sum of the
// per-link loads. Destination 0 hears from sources {0, 1, 3, 4} only, so
// its mailbox has a gap: source 2 reads nil, and source 3, whose entry is
// not at index 3, is found by the search.
func TestRandomTrafficConservation(t *testing.T) {
	for trial := uint64(0); trial < 20; trial++ {
		n := 5 + int(trial%8)
		clique.EachForm(t, n, func(t *testing.T, c *clique.Network) {
			rng := rand.New(rand.NewPCG(42, trial))
			words := make(map[[2]int][]clique.Word) // keyed (dst, src)
			payloads := make(map[[2]int][]clique.Payload)
			load := make(map[[2]int]int64)
			send := func(src, dst int) {
				k := [2]int{dst, src}
				if rng.IntN(2) == 0 {
					w := clique.Word(rng.Uint64())
					c.Send(src, dst, w)
					words[k] = append(words[k], w)
					load[k]++
					return
				}
				p, cost := new(int64), 1+rng.Int64N(3)
				*p = int64(len(payloads[k]))<<32 | int64(dst)<<16 | int64(src)
				c.SendPayload(src, dst, cost, p)
				payloads[k] = append(payloads[k], p)
				load[k] += cost
			}
			for _, src := range []int{0, 1, 3, 4} {
				send(src, 0)
			}
			for m := 0; m < 200; m++ {
				send(rng.IntN(n), 1+rng.IntN(n-1))
			}
			var wantMax, wantWords int64
			for k, l := range load {
				if k[0] != k[1] {
					wantMax = max(wantMax, l)
					wantWords += l
				}
			}
			mail := c.Flush()
			if c.Rounds() != wantMax || c.Words() != wantWords {
				t.Fatalf("charged %d rounds / %d words, want %d / %d", c.Rounds(), c.Words(), wantMax, wantWords)
			}
			for dst := 0; dst < n; dst++ {
				eachWords := make(map[int][]clique.Word)
				eachPayloads := make(map[int][]clique.Payload)
				last := -1
				mail.Each(dst, func(src int, ws []clique.Word) {
					if src <= last || len(ws) == 0 {
						t.Fatalf("Each(%d) visited source %d (%d words) after %d", dst, src, len(ws), last)
					}
					last, eachWords[src] = src, ws
				})
				last = -1
				mail.EachPayload(dst, func(src int, ps []clique.Payload) {
					if src <= last || len(ps) == 0 {
						t.Fatalf("EachPayload(%d) visited source %d (%d payloads) after %d", dst, src, len(ps), last)
					}
					last, eachPayloads[src] = src, ps
				})
				for src := 0; src < n; src++ {
					k := [2]int{dst, src}
					for path, got := range map[string][]clique.Word{"From": mail.From(dst, src), "Each": eachWords[src]} {
						if !reflect.DeepEqual(got, words[k]) {
							t.Fatalf("%s(%d, %d) = %v, sent %v", path, dst, src, got, words[k])
						}
					}
					for path, got := range map[string][]clique.Payload{"PayloadsFrom": mail.PayloadsFrom(dst, src), "EachPayload": eachPayloads[src]} {
						if !reflect.DeepEqual(got, payloads[k]) {
							t.Fatalf("%s(%d, %d) = %v, sent %v", path, dst, src, got, payloads[k])
						}
					}
				}
			}
			if mail.From(0, 2) != nil || mail.PayloadsFrom(0, 2) != nil {
				t.Fatal("the gap in destination 0's senders reads as a delivery")
			}
			if mail.From(0, 3) == nil && mail.PayloadsFrom(0, 3) == nil {
				t.Fatal("source 3 behind the gap is lost")
			}
		})
	}
}

func TestPendingWords(t *testing.T) {
	c := clique.New(3)
	c.Send(0, 1, 1)
	c.Send(0, 2, 2)
	c.Send(0, 0, 3) // self: not counted
	if got := c.PendingWords(0); got != 2 {
		t.Errorf("PendingWords = %d, want 2", got)
	}
	c.Flush()
	if got := c.PendingWords(0); got != 0 {
		t.Errorf("PendingWords after flush = %d", got)
	}
}

// TestAnyChargesLikeBroadcastWord: the distributed OR charges what the
// one-word broadcast it replaces charges — one round, n(n−1) words, in the
// current phase — answers the OR of the node bits, and allocates nothing.
func TestAnyChargesLikeBroadcastWord(t *testing.T) {
	const n = 9
	ref, c := clique.New(n), clique.New(n)
	ref.Phase("or")
	c.Phase("or")
	for _, set := range [][]int{nil, {0}, {n - 1}, {2, 5}} {
		bits := make([]bool, n)
		words := make([]clique.Word, n)
		for _, v := range set {
			bits[v], words[v] = true, 1
		}
		ref.BroadcastWord(words)
		if got := c.Any(func(v int) bool { return bits[v] }); got != (len(set) > 0) {
			t.Errorf("Any over bits %v = %v", set, got)
		}
	}
	if got, want := c.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("Any charged %+v, BroadcastWord %+v", got, want)
	}
	bits := make([]bool, n)
	if allocs := testing.AllocsPerRun(100, func() { c.Any(func(v int) bool { return bits[v] }) }); allocs != 0 {
		t.Errorf("Any allocates %v objects per call, want 0", allocs)
	}
}

// TestMaxChargesLikeBroadcastWord: the distributed maximum charges what the
// one-word broadcast it replaces charges — one round, n(n−1) words, in the
// current phase — answers the largest node word, and allocates nothing.
func TestMaxChargesLikeBroadcastWord(t *testing.T) {
	const n = 9
	ref, c := clique.New(n), clique.New(n)
	ref.Phase("max")
	c.Phase("max")
	for _, words := range [][]clique.Word{
		make([]clique.Word, n),
		{7, 0, 0, 0, 0, 0, 0, 0, 0},
		{0, 0, 0, 0, 0, 0, 0, 0, 1 << 40},
		{3, 9, 2, 9, 4, 1, 0, 8, 5},
		{0, 0, ^clique.Word(0), 0, 0, 0, 0, 0, 6},
	} {
		ref.BroadcastWord(words)
		want := slices.Max(words)
		if got := c.Max(func(v int) clique.Word { return words[v] }); got != want {
			t.Errorf("Max over %v = %d, want %d", words, got, want)
		}
	}
	if got, want := c.Stats(), ref.Stats(); !reflect.DeepEqual(got, want) {
		t.Errorf("Max charged %+v, BroadcastWord %+v", got, want)
	}
	words := make([]clique.Word, n)
	if allocs := testing.AllocsPerRun(100, func() { c.Max(func(v int) clique.Word { return words[v] }) }); allocs != 0 {
		t.Errorf("Max allocates %v objects per call, want 0", allocs)
	}
}
