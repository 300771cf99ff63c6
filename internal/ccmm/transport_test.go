package ccmm

import (
	"errors"
	"math/rand/v2"
	"reflect"
	"testing"

	"github.com/algebraic-clique/algclique/internal/bilinear"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// The parity property is the exchange port's contract, stated once for
// every engine: on any operands, the product equals the schoolbook
// reference on the direct transport, on the wire transport, and on one and
// on four local workers, and every run charges the identical ledger —
// rounds, words, flushes, per-phase breakdown. For the commutative algebras (int64, Boolean, min-plus) three
// metamorphic rows follow: the product of transposed operands in swapped
// order is the transposed product, (AB)ᵀ = BᵀAᵀ; squaring a relabelled
// operand relabels the square, (PAPᵀ)² = P·A²·Pᵀ; and products associate,
// (AB)C = A(BC) — for the tile engine on both operand forms, RowMat
// ("sparse") and CSR ("csr"). Engines register into
// engineTable once; the per-algebra tests below only choose operands and
// sizes. (What the shared schedules cost is pinned separately by
// TestGoldenLedger.)

// mulOn runs one product on a fresh network with the given transport and
// options and returns the product plus the full accounting snapshot.
func mulOn[T any](t *testing.T, n int, tr clique.Transport,
	mul func(net *clique.Network, sc *Scratch) (*RowMat[T], error), opts ...clique.Option) (*RowMat[T], clique.Stats) {
	t.Helper()
	net := clique.New(n, append(opts, clique.WithTransport(tr))...)
	defer net.Close()
	p, err := mul(net, NewScratch())
	if err != nil {
		t.Fatalf("transport %v on n=%d: %v", tr, n, err)
	}
	return p, net.Stats()
}

// parityRuns are the networks one product runs on; the first one's ledger
// is the one the others must charge.
var parityRuns = []struct {
	name    string
	tr      clique.Transport
	workers int // local workers; 0 is the network's default
}{
	{"direct", clique.TransportDirect, 0},
	{"wire", clique.TransportWire, 0},
	{"direct, 1 worker", clique.TransportDirect, 1},
	{"direct, 4 workers", clique.TransportDirect, 4},
}

// parity asserts the property for one product.
func parity[T any](t *testing.T, n int, want *RowMat[T],
	mul func(net *clique.Network, sc *Scratch) (*RowMat[T], error)) {
	t.Helper()
	var first clique.Stats
	for i, run := range parityRuns {
		var opts []clique.Option
		if run.workers > 0 {
			opts = append(opts, clique.WithWorkers(run.workers))
		}
		got, st := mulOn[T](t, n, run.tr, mul, opts...)
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("n=%d: %s product differs from the schoolbook reference", n, run.name)
		}
		if i == 0 {
			first = st
		} else if !reflect.DeepEqual(st, first) {
			t.Fatalf("n=%d: ledger diverged:\n%s: %+v\n%s: %+v", n, parityRuns[0].name, first, run.name, st)
		}
	}
}

// transposed returns mᵀ.
func transposed[T any](m *RowMat[T]) *RowMat[T] {
	out := make([][]T, m.N())
	for i := range out {
		out[i] = make([]T, m.N())
		for j := range out[i] {
			out[i][j] = m.Rows[j][i]
		}
	}
	return &RowMat[T]{Rows: out}
}

// relabelled returns P·m·Pᵀ for the permutation P sending node i to p[i].
func relabelled[T any](m *RowMat[T], p []int) *RowMat[T] {
	out := make([][]T, m.N())
	for i := range out {
		out[i] = make([]T, m.N())
	}
	for i, row := range m.Rows {
		for j, x := range row {
			out[p[i]][p[j]] = x
		}
	}
	return &RowMat[T]{Rows: out}
}

// metamorphic asserts the three metamorphic rows for one engine on the
// direct transport: mul(Bᵀ, Aᵀ) = want(AB)ᵀ; mul(PAPᵀ, PAPᵀ) = P·square·Pᵀ,
// where square = A²; and mul(mul(A, B), C) = mul(A, mul(B, C)) = abc, the
// reference (AB)C.
func metamorphic[T any](t *testing.T, n int, p []int, a, b, c, want, square, abc *RowMat[T],
	mul func(net *clique.Network, sc *Scratch, s, t *RowMat[T]) (*RowMat[T], error)) {
	t.Helper()
	prod := func(s, u *RowMat[T]) *RowMat[T] {
		got, _ := mulOn[T](t, n, clique.TransportDirect, func(net *clique.Network, sc *Scratch) (*RowMat[T], error) {
			return mul(net, sc, s, u)
		})
		return got
	}
	if !reflect.DeepEqual(prod(transposed(b), transposed(a)).Rows, transposed(want).Rows) {
		t.Fatalf("n=%d: BᵀAᵀ differs from (AB)ᵀ", n)
	}
	pa := relabelled(a, p)
	if !reflect.DeepEqual(prod(pa, pa).Rows, relabelled(square, p).Rows) {
		t.Fatalf("n=%d: (PAPᵀ)² differs from P·A²·Pᵀ", n)
	}
	if !reflect.DeepEqual(prod(prod(a, b), c).Rows, abc.Rows) {
		t.Fatalf("n=%d: (AB)C differs from the reference", n)
	}
	if !reflect.DeepEqual(prod(a, prod(b, c)).Rows, abc.Rows) {
		t.Fatalf("n=%d: A(BC) differs from (AB)C", n)
	}
}

// engineCase is one engine's registration in the parity table.
type engineCase[T any] struct {
	name   string
	sparse bool // runs on operands inside the tile engines' density bound
	mul    func(net *clique.Network, sc *Scratch, s, t *RowMat[T]) (*RowMat[T], error)
}

// engineTable lists every engine that can multiply over (sr, codec) on an
// n-node clique — including the naive engine and both operand forms of the
// tile engine ("sparse" for RowMat, "csr") on the wire transport, which no
// benchmark workload reaches.
func engineTable[T any](n int, sr ring.Semiring[T], codec ring.Codec[T]) []engineCase[T] {
	cases := []engineCase[T]{
		{"naive", false, func(net *clique.Network, sc *Scratch, s, t *RowMat[T]) (*RowMat[T], error) {
			return NaiveGather[T](net, sc, sr, codec, s, t)
		}},
		{"3d", false, func(net *clique.Network, sc *Scratch, s, t *RowMat[T]) (*RowMat[T], error) {
			return Semiring3D[T](net, sc, sr, codec, s, t)
		}},
	}
	if rg, ok := any(sr).(ring.Ring[T]); ok {
		if _, err := bilinear.Pick(n); err == nil {
			cases = append(cases, engineCase[T]{"fast", false, func(net *clique.Network, sc *Scratch, s, t *RowMat[T]) (*RowMat[T], error) {
				return FastBilinear[T](net, sc, rg, codec, nil, s, t)
			}})
		}
	}
	if n >= minSparseN {
		zero := sr.Zero()
		keep := func(x T) bool { return !sr.Equal(x, zero) }
		cases = append(cases,
			engineCase[T]{"sparse", true, func(net *clique.Network, sc *Scratch, s, t *RowMat[T]) (*RowMat[T], error) {
				return SparseMul[T](net, sc, sr, codec, s, t)
			}},
			engineCase[T]{"csr", true, func(net *clique.Network, sc *Scratch, s, t *RowMat[T]) (*RowMat[T], error) {
				p, err := SparseMulCSR[T](net, sc, sr, codec,
					matrix.CSRFromDense(s.Collect(), keep), matrix.CSRFromDense(t.Collect(), keep))
				if err != nil {
					return nil, err
				}
				return Distribute(p.Dense(zero, sr.One())), nil
			}})
	}
	return cases
}

// parityOver runs the property for every table engine at every size.
// label names the subtest for an engine ("" skips it); gen draws one
// element. Dense operands are three-quarters full — the rest is the
// semiring zero, so min-plus operands carry +∞ entries — and the tile
// engines get operands at average degree 2; transposing and relabelling
// keep an operand pair's Σ ca·rb, so the metamorphic rows stay inside the
// tile engines' bound.
func parityOver[T any](t *testing.T, sizes []int, seed uint64, sr ring.Semiring[T], codec ring.Codec[T],
	gen func(*rand.Rand) T, label func(engine string) string) {
	zero := sr.Zero()
	commutes := false // the metamorphic rows' algebras: ⊗ commutes, no witnesses
	switch any(sr).(type) {
	case ring.Int64, ring.MinPlus, ring.Bool:
		commutes = true
	}
	for _, n := range sizes {
		rng := rand.New(rand.NewPCG(seed, uint64(n)))
		ops := [2][2]*RowMat[T]{ // [dense, sparse][A, B]
			{randMat(rng, n, 0.75, zero, gen), randMat(rng, n, 0.75, zero, gen)},
			{randMat(rng, n, 2/float64(n), zero, gen), randMat(rng, n, 2/float64(n), zero, gen)},
		}
		perm := rng.Perm(n)
		// The third factor of the associativity row: as dense as A and B for
		// the dense engines, one entry per row on average for the tile
		// engines, so (AB)C stays inside their bound.
		third := [2]*RowMat[T]{randMat(rng, n, 0.75, zero, gen), randMat(rng, n, 1/float64(n), zero, gen)}
		var want, square, abc [2]*RowMat[T] // the schoolbook references AB, A² and (AB)C, evaluated locally
		for _, e := range engineTable(n, sr, codec) {
			name := label(e.name)
			if name == "" {
				continue
			}
			k := 0
			if e.sparse {
				k = 1
			}
			a, b := ops[k][0], ops[k][1]
			if want[k] == nil {
				want[k] = Distribute(matrix.Mul(sr, a.Collect(), b.Collect()))
				if commutes {
					square[k] = Distribute(matrix.Mul(sr, a.Collect(), a.Collect()))
					abc[k] = Distribute(matrix.Mul(sr, want[k].Collect(), third[k].Collect()))
				}
			}
			t.Run(name, func(t *testing.T) {
				parity[T](t, n, want[k], func(net *clique.Network, sc *Scratch) (*RowMat[T], error) {
					return e.mul(net, sc, a, b)
				})
				if commutes {
					metamorphic(t, n, perm, a, b, third[k], want[k], square[k], abc[k], e.mul)
				}
			})
		}
	}
}

func allEngines(engine string) string { return engine }

// only restricts a parity run to one engine, under the given subtest name.
func only(engine, as string) func(string) string {
	return func(e string) string {
		if e == engine {
			return as
		}
		return ""
	}
}

func randIntMat(rng *rand.Rand, n int, span int64) *RowMat[int64] {
	return randMat(rng, n, 1, 0, func(rng *rand.Rand) int64 { return rng.Int64N(2*span) - span })
}

func genInt(rng *rand.Rand) int64 { return rng.Int64N(100) - 50 }

// genMinPlus draws finite weights; negative ones are supported.
func genMinPlus(rng *rand.Rand) int64 { return rng.Int64N(150) - 50 }

func genValW(rng *rand.Rand) ring.ValW { return ring.ValW{V: rng.Int64N(100), W: rng.Int64N(64)} }

// genTrue draws a Boolean entry as its carriers hold it: 1 (true).
func genTrue(*rand.Rand) int64 { return 1 }

// diffSizes samples the awkward range 2..100: primes, powers, perfect
// cubes and squares, and both neighbours of cube boundaries.
var diffSizes = []int{2, 3, 5, 7, 8, 9, 13, 26, 27, 28, 36, 50, 64, 81, 100}

func TestTransportDifferentialInt64(t *testing.T) {
	r := ring.Int64{}
	parityOver[int64](t, diffSizes, 41, r, r, genInt, allEngines)
}

func TestTransportDifferentialMinPlus(t *testing.T) {
	mp := ring.MinPlus{}
	parityOver[int64](t, diffSizes, 42, mp, mp, genMinPlus, allEngines)
}

func TestTransportDifferentialMinPlusW(t *testing.T) {
	mw := ring.MinPlusW{}
	parityOver[ring.ValW](t, diffSizes, 43, mw, mw, genValW, allEngines)
}

func TestTransportDifferentialZp(t *testing.T) {
	z := ring.NewZp(1009)
	parityOver[int64](t, diffSizes, 44, z, z, func(rng *rand.Rand) int64 { return rng.Int64N(z.Modulus()) }, allEngines)
}

func TestTransportDifferentialBool(t *testing.T) {
	br := ring.Bool{}
	for _, codec := range []struct {
		name string
		c    ring.BulkCodec[int64]
	}{{"unpacked", ring.Int64{}}, {"packed", ring.PackedBit{}}} {
		parityOver[int64](t, diffSizes, 45, br, codec.c, genTrue,
			func(engine string) string { return codec.name + "/" + engine })
	}
}

func TestTransportDifferentialFastBilinear(t *testing.T) {
	sizes := []int{16, 36, 64, 100}
	r := ring.Int64{}
	parityOver[int64](t, sizes, 46, r, r, genInt, only("fast", "int64"))
	z := ring.NewZp(1009)
	parityOver[int64](t, sizes, 46, z, z, func(rng *rand.Rand) int64 { return rng.Int64N(z.Modulus()) }, only("fast", "zp"))
}

func TestTransportDifferentialWitnessProduct(t *testing.T) {
	mp := ring.MinPlus{}
	for _, n := range []int{5, 27, 50} {
		rng := rand.New(rand.NewPCG(47, uint64(n)))
		s, u := randMat(rng, n, 0.75, mp.Zero(), genMinPlus), randMat(rng, n, 0.75, mp.Zero(), genMinPlus)
		run := func(tr clique.Transport) (p, q *RowMat[int64], st clique.Stats) {
			net := clique.New(n, clique.WithTransport(tr))
			defer net.Close()
			p, q, err := DistanceProduct3D(net, NewScratch(), s, u, -1)
			if err != nil {
				t.Fatalf("transport %v: %v", tr, err)
			}
			return p, q, net.Stats()
		}
		dp, dq, dst := run(clique.TransportDirect)
		wp, wq, wst := run(clique.TransportWire)
		if !reflect.DeepEqual(dp.Rows, wp.Rows) || !reflect.DeepEqual(dq.Rows, wq.Rows) {
			t.Fatalf("n=%d: witness distance product diverged between transports", n)
		}
		if !reflect.DeepEqual(dst, wst) {
			t.Fatalf("n=%d: witness product ledger diverged:\ndirect: %+v\nwire:   %+v", n, dst, wst)
		}
	}
}

// TestTransportDifferentialLarge pushes the property to n = 512, where the
// 3D engine runs a perfect 8³ cube and the packed Boolean transport
// compresses 64×.
func TestTransportDifferentialLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("n=512 differential skipped in -short")
	}
	r := ring.Int64{}
	parityOver[int64](t, []int{512}, 48, r, r, genInt, only("3d", "3d/int64"))
	parityOver[int64](t, []int{512}, 48, ring.Bool{}, ring.PackedBit{}, genTrue, only("3d", "3d/packedbool"))
}

// TestWireScratchSurvivesAbort pins that a product aborted mid-schedule —
// messages posted but never exchanged, deliveries never released — leaves
// nothing behind in the scratch that the next product on the wire
// transport could re-send or misread.
func TestWireScratchSurvivesAbort(t *testing.T) {
	const n = 36
	r := ring.Int64{}
	rng := rand.New(rand.NewPCG(52, n))
	for _, e := range engineTable[int64](n, r, r) {
		keep := 0.75
		if e.sparse {
			keep = 2.0 / n
		}
		s, u := randMat(rng, n, keep, 0, genInt), randMat(rng, n, keep, 0, genInt)
		want := Distribute(matrix.Mul(r, s.Collect(), u.Collect()))
		net := clique.New(n, clique.WithTransport(clique.TransportWire))
		sc := NewScratch()
		if _, err := e.mul(net, sc, s, u); err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		full := net.Rounds()
		for limit := int64(1); limit < full; limit += max(full/7, 1) {
			net.Reset()
			net.SetRoundLimit(limit)
			var abort *clique.RoundLimitError
			if _, err := e.mul(net, sc, u, s); !errors.As(err, &abort) {
				t.Fatalf("%s under a %d-round budget: err = %v, want *clique.RoundLimitError", e.name, limit, err)
			}
			net.Reset()
			net.SetRoundLimit(0)
			got, err := e.mul(net, sc, s, u)
			if err != nil {
				t.Fatalf("%s after an abort at %d rounds: %v", e.name, limit, err)
			}
			if !reflect.DeepEqual(got.Rows, want.Rows) || net.Rounds() != full {
				t.Fatalf("%s after an abort at %d rounds: wrong product or ledger (%d rounds, want %d)", e.name, limit, net.Rounds(), full)
			}
		}
		net.Close()
	}
}

// TestLinkFlushResolvesAuto pins the port flush's Auto choice at its
// boundary, on both transports: a lone 2-word message rides its own link
// (one flush, two rounds, two words), while a lone 3-word one is cheaper
// striped over three intermediaries (two flushes of one round each, its
// words charged per hop: 2 in phase A — the first lands on the sender —
// and 3 in phase B). Two messages of 2 + 1 words on one link are one
// 3-word link to Auto. A self-send takes part in Auto — 8 words to itself
// make the 3-word message ride directly — except on the cube, where it is
// a hosted pair, charged nothing and left out. Every message arrives
// intact, in send order.
func TestLinkFlushResolvesAuto(t *testing.T) {
	const n = 8 // node 0's stripe starts at intermediary 0
	type msg struct {
		dst  int
		vals []int64
	}
	self := []int64{1, 2, 3, 4, 5, 6, 7, 8}
	for _, tr := range []clique.Transport{clique.TransportDirect, clique.TransportWire} {
		for _, c := range []struct {
			name                   string
			cube                   bool
			sends                  []msg
			rounds, words, flushes int64
		}{
			{"2 words", false, []msg{{5, []int64{10, 11}}}, 2, 2, 1},
			{"3 words", false, []msg{{5, []int64{10, 11, 12}}}, 2, 5, 2},
			{"2+1 words on one link", false, []msg{{5, []int64{10, 11}}, {5, []int64{12}}}, 2, 5, 2},
			{"self-send and 3 words", false, []msg{{0, self}, {5, []int64{10, 11, 12}}}, 3, 3, 1},
			{"hosted pair and 3 words", true, []msg{{0, self}, {5, []int64{10, 11, 12}}}, 2, 5, 2},
		} {
			net := clique.New(n, clique.WithTransport(tr))
			p := newPort[int64](net, NewScratch(), chunks[int64]{ring.AsBulk[int64](ring.Int64{}), 1})
			if c.cube {
				p = p.onCube()
			}
			for _, m := range c.sends {
				p.send(0, m.dst, m.vals)
			}
			mail := p.flush()
			k := map[int]int{}
			for _, m := range c.sends {
				if got := p.from(mail, m.dst, 0, k[m.dst]); !reflect.DeepEqual(got, m.vals) {
					t.Fatalf("%v, %s: message %d to %d delivered %v, sent %v", tr, c.name, k[m.dst], m.dst, got, m.vals)
				}
				k[m.dst]++
			}
			st := net.Stats()
			net.Close()
			if st.Rounds != c.rounds || st.Words != c.words || st.Flushes != c.flushes {
				t.Fatalf("%v, %s: charged %d rounds, %d words, %d flushes; want %d, %d, %d",
					tr, c.name, st.Rounds, st.Words, st.Flushes, c.rounds, c.words, c.flushes)
			}
		}
	}
}

// TestTranspose pins the shared one-word-per-link transpose on both
// transports, down to the single-node clique whose only link is the free
// self-link.
func TestTranspose(t *testing.T) {
	for _, n := range []int{1, 2, 7, 30} {
		rng := rand.New(rand.NewPCG(51, uint64(n)))
		m := randIntMat(rng, n, 1000)
		var ledgers [2]clique.Stats
		for i, tr := range []clique.Transport{clique.TransportDirect, clique.TransportWire} {
			net := clique.New(n, clique.WithTransport(tr))
			col := Transpose(net, nil, m).Rows
			for v := 0; v < n; v++ {
				for w := 0; w < n; w++ {
					if col[v][w] != m.Rows[w][v] {
						t.Fatalf("n=%d %v: col[%d][%d] = %d, want %d", n, tr, v, w, col[v][w], m.Rows[w][v])
					}
				}
			}
			ledgers[i] = net.Stats()
			net.Close()
		}
		want := clique.Stats{N: n, Rounds: min(int64(n-1), 1), Words: int64(n) * int64(n-1), Flushes: 1, Phases: []clique.PhaseStat{}}
		if !reflect.DeepEqual(ledgers[0], want) || !reflect.DeepEqual(ledgers[1], want) {
			t.Fatalf("n=%d: ledgers direct %+v wire %+v, want %+v", n, ledgers[0], ledgers[1], want)
		}
	}
}
