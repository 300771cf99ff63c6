package routing

import (
	"math/rand/v2"
	"sync"
	"testing"
)

// refKoenigLinkLoads is the word-by-word reference of the König
// assignment: loadA[src*n+inter] words ride the phase-A link src→inter and
// loadB[inter*n+dst] the phase-B link inter→dst, the free self-links
// included. It is the definition of the assignment. Every off-node word,
// in (src, dst) order, is an edge between its sender's virtual sender
// ⌊p/n⌋ (p its position among the sender's words) and its receiver's
// virtual receiver ⌊q/n⌋ (q its position among the receiver's words, which
// arrive in source order). Each edge in turn takes a colour, the
// intermediary it rides: its sender's id if that is free at both of its
// ends, else its receiver's, else the lowest colour free at both; and when
// none is, a free at its virtual sender (the sender's id if it is, else
// the lowest) and b free at its virtual receiver (the receiver's id if it
// is, else the lowest) are swapped along the path of a and b edges from
// its virtual receiver, and it takes a. The reference panics unless the
// colouring it builds is proper. koenigCosts, which colours link by link,
// must reduce to its maxima and non-self totals.
func refKoenigLinkLoads(n int, lens func(src, dst int) int64) (loadA, loadB []int64) {
	type edge struct{ u, v, col int }
	var edges []edge
	colourAt := map[[2]int]int{} // (vertex, colour) → edge; receivers are vertices −1, −2, …
	free := func(x, c int) bool { _, used := colourAt[[2]int{x, c}]; return !used }
	lowest := func(x int) int {
		for c := 0; c < n; c++ {
			if free(x, c) {
				return c
			}
		}
		panic("reference: a virtual endpoint with more than n words")
	}
	paint := func(e, c int) {
		edges[e].col = c
		for _, x := range [2]int{edges[e].u, edges[e].v} {
			if _, used := colourAt[[2]int{x, c}]; used {
				panic("reference: improper colouring")
			}
			colourAt[[2]int{x, c}] = e
		}
	}
	inPos := make([]int, n)
	virtual := 0 // virtual senders so far
	for src := 0; src < n; src++ {
		pos := 0
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			for range lens(src, dst) {
				u := virtual + pos/n
				v := -1 - (dst<<20 + inPos[dst]/n) // distinct from every sender
				pos++
				inPos[dst]++
				edges = append(edges, edge{u: u, v: v})
				e := len(edges) - 1
				c := -1
				switch {
				case free(u, src) && free(v, src):
					c = src
				case free(u, dst) && free(v, dst):
					c = dst
				default:
					for k := 0; k < n; k++ {
						if free(u, k) && free(v, k) {
							c = k
							break
						}
					}
				}
				if c < 0 {
					a, b := src, dst
					if !free(u, a) {
						a = lowest(u)
					}
					if !free(v, b) {
						b = lowest(v)
					}
					var path []int
					for x, want := v, a; ; {
						f, ok := colourAt[[2]int{x, want}]
						if !ok {
							break
						}
						path = append(path, f)
						if edges[f].u == x {
							x = edges[f].v
						} else {
							x = edges[f].u
						}
						want = a + b - want
					}
					for _, f := range path {
						delete(colourAt, [2]int{edges[f].u, edges[f].col})
						delete(colourAt, [2]int{edges[f].v, edges[f].col})
					}
					for _, f := range path {
						paint(f, a+b-edges[f].col)
					}
					c = a
				}
				paint(e, c)
			}
		}
		virtual += (pos + n - 1) / n
	}
	loadA, loadB = make([]int64, n*n), make([]int64, n*n)
	e := 0
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src == dst {
				continue
			}
			for range lens(src, dst) {
				c := edges[e].col
				loadA[src*n+c]++
				loadB[c*n+dst]++
				e++
			}
		}
	}
	return loadA, loadB
}

// refKoenigCosts reduces the reference's per-link loads to the aggregates
// koenigCosts must return.
func refKoenigCosts(n int, lens func(src, dst int) int64) Costs {
	c := refCosts(n, lens)
	c.MaxA, c.TotalA, c.MaxB, c.TotalB = 0, 0, 0, 0
	if n <= 1 {
		return c
	}
	loadA, loadB := refKoenigLinkLoads(n, lens)
	for src := 0; src < n; src++ {
		for dst := 0; dst < n; dst++ {
			if src != dst {
				i := src*n + dst
				c.MaxA, c.MaxB = max(c.MaxA, loadA[i]), max(c.MaxB, loadB[i])
				c.TotalA += loadA[i]
				c.TotalB += loadB[i]
			}
		}
	}
	return c
}

// checkOblivious holds one pattern's König charge to the word-by-word
// reference and to its floors — phase A at most ⌈Out/n⌉ rounds, phase B
// at most ⌈In/n⌉ — and the charge ObliviousCosts resolves to the stripe's
// Auto: the same schedule kind, never more rounds or words, and, where it
// differs from the stripe, the König charge.
func checkOblivious(t *testing.T, name string, n int, lens func(src, dst int) int64) {
	t.Helper()
	links := linksOf(n, lens)
	k, ok := koenigCosts(n, links)
	if !ok {
		t.Fatalf("%s n=%d: no colouring", name, n)
	}
	if want := refKoenigCosts(n, lens); k != want {
		t.Fatalf("%s n=%d: koenigCosts %+v, word-by-word reference %+v", name, n, k, want)
	}
	nn := int64(n)
	if k.MaxA > (k.Out+nn-1)/nn || k.MaxB > (k.In+nn-1)/nn {
		t.Fatalf("%s n=%d: König phases %d + %d above their floors ⌈%d/n⌉ + ⌈%d/n⌉", name, n, k.MaxA, k.MaxB, k.Out, k.In)
	}
	stripe := TwoPhaseCosts(n, nil, links)
	got := ObliviousCosts(n, NewScratch(), links)
	if got.TwoPhase() != stripe.TwoPhase() {
		t.Fatalf("%s n=%d: oblivious Auto takes two-phase = %v, the stripe's %v", name, n, got.TwoPhase(), stripe.TwoPhase())
	}
	if got != stripe && got != k {
		t.Fatalf("%s n=%d: ObliviousCosts %+v is neither the stripe's %+v nor König's %+v", name, n, got, stripe, k)
	}
	if got.TwoPhase() && (got.MaxA+got.MaxB > stripe.MaxA+stripe.MaxB || got.TotalA+got.TotalB > stripe.TotalA+stripe.TotalB) {
		t.Fatalf("%s n=%d: ObliviousCosts %+v charges more than the stripe's %+v", name, n, got, stripe)
	}
}

// TestKoenigMatchesWordReference checks koenigCosts, which colours a link
// at a time, against the word-by-word reference, on dense random patterns
// and on sparse ones with long messages (so that pieces cross virtual
// endpoints, colours run out and paths flip), at sizes on both sides of
// 64 colours, one bitset word.
func TestKoenigMatchesWordReference(t *testing.T) {
	for _, n := range []int{2, 3, 8, 15, 41} {
		rng := rand.New(rand.NewPCG(7, uint64(n)))
		pays := randPattern(rng, n)
		checkOblivious(t, "dense", n, func(src, dst int) int64 { return int64(len(pays[src][dst])) })
	}
	for _, n := range []int{2, 5, 16, 41, 70} {
		for trial := 0; trial < 10; trial++ {
			rng := rand.New(rand.NewPCG(uint64(n), uint64(trial)))
			lens := make([]int64, n*n)
			for k := rng.IntN(4 * n); k > 0; k-- {
				lens[rng.IntN(n)*n+rng.IntN(n)] = 1 + rng.Int64N(int64(3*n))
			}
			checkOblivious(t, "sparse", n, func(src, dst int) int64 { return lens[src*n+dst] })
		}
	}
}

// TestObliviousCostsWarmAllocatesNothing: a pattern's first flush colours
// it; every later one only looks it up.
func TestObliviousCostsWarmAllocatesNothing(t *testing.T) {
	const n = 40
	rng := rand.New(rand.NewPCG(3, 4))
	pays := randPattern(rng, n)
	links := linksOf(n, func(src, dst int) int64 { return int64(len(pays[src][dst])) })
	sc := NewScratch()
	want := ObliviousCosts(n, sc, links)
	if a := testing.AllocsPerRun(20, func() {
		if got := ObliviousCosts(n, sc, links); got != want {
			t.Fatalf("warm ObliviousCosts %+v, cold %+v", got, want)
		}
	}); a != 0 {
		t.Fatalf("a warm ObliviousCosts allocates %v times", a)
	}
}

// FuzzObliviousCosts runs arbitrary traffic patterns at n ≤ 24 through the
// König assignment: data[0] picks n, and each further byte the word length
// of one ordered pair, in (src, dst) order. The charge must equal the
// word-by-word reference's, meet its floors, and never exceed the
// stripe's in rounds or words where Auto takes it.
func FuzzObliviousCosts(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := 1 + int(data[0])%24
		lens := make([]int64, n*n)
		for k, l := range data[1:min(len(data), 1+n*n)] {
			lens[k] = int64(l)
		}
		checkOblivious(t, "fuzz", n, func(src, dst int) int64 { return lens[src*n+dst] })
	})
}

// TestObliviousCostsConcurrent: sessions on several goroutines share the
// process-wide memo; every caller gets the one charge of its pattern,
// whether it colours the pattern or finds it memoised.
func TestObliviousCostsConcurrent(t *testing.T) {
	const n = 30
	var patterns [3][]Link
	var want [3]Costs
	for i := range patterns {
		pays := randPattern(rand.New(rand.NewPCG(11, uint64(i))), n)
		patterns[i] = linksOf(n, func(src, dst int) int64 { return int64(len(pays[src][dst])) })
		want[i] = koenigOrStripe(n, patterns[i])
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := NewScratch()
			for k := 0; k < 20; k++ {
				i := (g + k) % len(patterns)
				if got := ObliviousCosts(n, sc, patterns[i]); got != want[i] {
					t.Errorf("goroutine %d, pattern %d: ObliviousCosts %+v, want %+v", g, i, got, want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// koenigOrStripe is ObliviousCosts' rule without its memo.
func koenigOrStripe(n int, links []Link) Costs {
	c := TwoPhaseCosts(n, nil, links)
	if k, ok := koenigCosts(n, links); ok && c.TwoPhase() && k.MaxA+k.MaxB < c.MaxA+c.MaxB && k.TotalA+k.TotalB <= c.TotalA+c.TotalB {
		return k
	}
	return c
}
