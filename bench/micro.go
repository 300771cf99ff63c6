package main

import (
	"fmt"
	"math/rand/v2"
	"time"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
	"github.com/algebraic-clique/algclique/internal/routing"
)

// The leaf layers — routing, clique, matrix, ring — cannot be split out of
// a ccmm rung from outside the program, so they are timed on their own, as
// rates, at the shapes the workloads' operations give them: the clique
// sizes of the scripts and the per-link message length the dense product's
// own Stats imply. They are reported as rates, never as shares of an op.

// microBudget is the time each rate is sampled for.
const microBudget = 40 * time.Millisecond

// rate calls f, which processes units units per call, for the budget (three
// calls at least, after one to warm up) and returns the median ns per unit.
func rate(units float64, f func()) float64 {
	f()
	var xs []float64
	for start := time.Now(); len(xs) < 3 || time.Since(start) < microBudget; {
		t := time.Now()
		f()
		xs = append(xs, float64(time.Since(t).Nanoseconds())/units)
	}
	return median(xs)
}

// micro measures every leaf-layer metric. perLink is the per-link message
// length, in words, of one exchange of the dense integer product.
func micro(sc scale, perLink int, out map[string]float64) error {
	rng := rand.New(rand.NewPCG(7, 7)) // the rates do not depend on the values
	n, L := sc.dense, max(perLink, 1)

	// routing: an all-to-all of L words per link; one hot destination, which
	// makes the direct schedule cost n·L rounds and so forces the two-phase
	// one; the same all-to-all as typed payloads; an all-gather.
	net := clique.New(n)
	defer net.Close()
	rsc := routing.NewScratch()
	words := func(k int) []clique.Word {
		ws := make([]clique.Word, k)
		for i := range ws {
			ws[i] = rng.Uint64()
		}
		return ws
	}
	uniform := make([][][]clique.Word, n)
	hot := make([][][]clique.Word, n)
	pays := make([][][]int64, n)
	in := make([][][]int64, n)
	vecs := make([][]clique.Word, n)
	for src := 0; src < n; src++ {
		uniform[src] = make([][]clique.Word, n)
		hot[src] = make([][]clique.Word, n)
		pays[src] = make([][]int64, n)
		in[src] = make([][]int64, n)
		for dst := 0; dst < n; dst++ {
			uniform[src][dst] = words(L)
			pays[src][dst] = make([]int64, L)
		}
		hot[src][0] = words(n * L / 4)
		vecs[src] = words(L)
	}
	all := float64(n) * float64(n) * float64(L)
	out["routing.ns_per_word.exchange_uniform_256"] = rate(all, func() {
		routing.ExchangeScratch(net, routing.Auto, rsc, uniform)
	})
	out["routing.ns_per_word.exchange_hot_256"] = rate(float64(n)*float64(n*L/4), func() {
		routing.ExchangeScratch(net, routing.Auto, rsc, hot)
	})
	codec := ring.Int64{}
	out["routing.ns_per_word.exchange_payload_256"] = rate(all, func() {
		routing.ExchangePayload(net, routing.Auto, rsc, pays, func(k int) int64 { return int64(codec.EncodedLen(k)) }, in)
	})
	out["routing.ns_per_word.allgather_256"] = rate(float64(n*L), func() { routing.AllGather(net, vecs) })

	// clique: construction and first flush at the two CSR sizes (the
	// dense-mailbox and the sparse-link representation), then the
	// steady-state send+flush cost of each, then the fan-out primitives.
	// Construction is a one-off cost by nature, so each is one sample.
	t := time.Now()
	c := clique.New(sc.csrSmall)
	out["clique.new_ms.2000"] = ms(time.Since(t))
	t = time.Now()
	c.Send(0, 1, 1)
	c.Flush()
	out["clique.first_flush_ms.2000"] = ms(time.Since(t))
	c.Close()
	t = time.Now()
	large := clique.New(sc.csrLarge)
	defer large.Close()
	out["clique.new_ms.10000"] = ms(time.Since(t))

	msg := words(L)
	out["clique.ns_per_word.send_flush_dense_256"] = rate(float64(n)*float64(n-1)*float64(L), func() {
		for src := 0; src < n; src++ {
			for dst := 0; dst < n; dst++ {
				if src != dst {
					net.SendVec(src, dst, msg)
				}
			}
		}
		net.Flush()
	})
	// The CSR squares move a few short messages per node over a network
	// almost all of whose links stay idle.
	const fanout, short = 4, 5
	few := words(short)
	out["clique.ns_per_word.send_flush_sparselinks_10000"] = rate(float64(sc.csrLarge*fanout*short), func() {
		for v := 0; v < sc.csrLarge; v++ {
			for k := 1; k <= fanout; k++ {
				large.SendVec(v, (v+k*7919)%sc.csrLarge, few)
			}
		}
		large.Flush()
	})
	gnet := clique.New(sc.graph)
	defer gnet.Close()
	sink := make([]int, sc.graph)
	out["clique.ns_per_node.foreach_144"] = rate(float64(sc.graph), func() { gnet.ForEach(func(v int) { sink[v]++ }) })
	const tasks = 32
	var taskSink [tasks]int
	out["clique.ns_per_task.runlocal"] = rate(tasks, func() { gnet.RunLocal(tasks, func(t int) { taskSink[t]++ }) })

	// matrix: the local kernels at the block edge the engines hand them.
	const b = 64
	ia, ib, io := matrix.New[int64](b, b), matrix.New[int64](b, b), matrix.New[int64](b, b)
	wa, wb, wo := matrix.New[ring.ValW](b, b), matrix.New[ring.ValW](b, b), matrix.New[ring.ValW](b, b)
	for i := 0; i < b; i++ {
		for j := 0; j < b; j++ {
			ia.Set(i, j, rng.Int64N(1000))
			ib.Set(i, j, rng.Int64N(1000))
			wa.Set(i, j, ring.ValW{V: rng.Int64N(1000), W: int64(j)})
			wb.Set(i, j, ring.ValW{V: rng.Int64N(1000), W: int64(j)})
		}
	}
	out["matrix.ns_per_madd.mul_int_64"] = rate(b*b*b, func() { matrix.MulInto(ring.Int64{}, io, ia, ib) })
	out["matrix.ns_per_madd.minplus_64"] = rate(b*b*b, func() { matrix.MulMinPlusInto(io, ia, ib) })
	out["matrix.ns_per_madd.minplusw_64"] = rate(b*b*b, func() { matrix.MulMinPlusWInto(wo, wa, wb) })
	ba, bb, bo := matrix.NewBitDense(n, n), matrix.NewBitDense(n, n), matrix.NewBitDense(n, n)
	da, db := matrix.New[int64](n, n), matrix.New[int64](n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			ba.Set(i, j, rng.IntN(2) == 1)
			bb.Set(i, j, rng.IntN(2) == 1)
			da.Set(i, j, rng.Int64N(1000))
			if rng.IntN(4) == 0 {
				db.Set(i, j, 1+rng.Int64N(1000))
			}
		}
	}
	out["matrix.ns_per_madd.mulbit_256"] = rate(float64(n)*float64(n)*float64(n), func() { matrix.MulBitInto(bo, ba, bb) })
	one, two := clique.NewLocalPool(1), clique.NewLocalPool(2)
	defer one.Close()
	defer two.Close()
	// 1e6 "units" per call turns ns per unit into ms per call.
	out["matrix.ms.parstrassen_256"] = rate(1e6, func() { matrix.ParStrassen(two, ring.Int64{}, da, db, 0) })
	do := matrix.New[int64](n, n)
	seq := rate(1, func() { matrix.ParMulInto(one, ring.Int64{}, do, da, db) })
	par := rate(1, func() { matrix.ParMulInto(two, ring.Int64{}, do, da, db) })
	out["matrix.speedup.parmul_2w"] = seq / par
	csr := matrix.CSRFromDense(db, func(x int64) bool { return x != 0 })
	nnz := float64(max(csr.NNZ(), 1))
	out["matrix.ns_per_nnz.csr_from_dense"] = rate(nnz, func() { matrix.CSRFromDense(db, func(x int64) bool { return x != 0 }) })
	var verr error
	out["matrix.ns_per_nnz.csr_validate"] = rate(nnz, func() { verr = csr.Validate() })
	if verr != nil {
		return fmt.Errorf("micro: %w", verr)
	}

	// ring: the wire codecs on one node's outgoing traffic of one exchange.
	elems := n * L
	vals := make([]int64, elems)
	bools := make([]bool, elems)
	tups := make([]ring.Tuple[int64], elems)
	for i := range vals {
		vals[i] = rng.Int64N(1000)
		bools[i] = vals[i]%2 == 0
		tups[i] = ring.Tuple[int64]{Idx: int32(i), Val: vals[i]}
	}
	buf := make([]ring.Word, 0, 2*elems)
	dec := make([]int64, elems)
	vbuf := make([]int64, elems)
	out["ring.ns_per_elem.bulk_encode_int64"] = rate(float64(elems), func() { buf = ring.Int64{}.EncodeSlice(buf[:0], vals) })
	out["ring.ns_per_elem.bulk_decode_int64"] = rate(float64(elems), func() { ring.Int64{}.DecodeSlice(dec, buf) })
	out["ring.ns_per_elem.bulk_encode_minplus"] = rate(float64(elems), func() { buf = ring.MinPlus{}.EncodeSlice(buf[:0], vals) })
	out["ring.ns_per_elem.packedbool_encode"] = rate(float64(elems), func() { buf = ring.PackedBool{}.EncodeSlice(buf[:0], bools) })
	tc := ring.NewTupleCodec[int64](ring.Int64{})
	out["ring.ns_per_elem.tuple_encode"] = rate(float64(elems), func() { buf, vbuf = tc.EncodeSlice(buf[:0], tups, vbuf) })
	return nil
}
