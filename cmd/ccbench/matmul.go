package main

import (
	"fmt"
	"math/rand/v2"
	"slices"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// The matmul experiment pins the schedule of the multiply-and-message
// substrate every algorithm in the library stands on, as the BENCH_matmul.json
// ledger:
//
//   - the rounds and words one session MatMul / DistanceProduct charges at
//     n ∈ {27, 64, 100}, density census included,
//   - Boolean products through the bit-packed transport and through the
//     unpacked reference, on the 3D engine and the naive gather.
//
// What these products cost in time and allocations is the yardstick's to
// say (bench/: dense_products, wire_products, matrix.ns_per_madd.*) and
// TestWarmGraphOpAllocs' to bound; that the wire transport charges the same
// ledger is TestTransportDifferential*.

// matmulRow is the charge of one product.
type matmulRow struct {
	Product string `json:"product"`
	N       int    `json:"n"`
	Rounds  int64  `json:"rounds"`
	Words   int64  `json:"words"`
}

func (r matmulRow) key() string { return fmt.Sprintf("%s/%d", r.Product, r.N) }

// measureBool runs the same Boolean product of 0/1 entries through the
// unpacked (ring.Int64, one word per entry) and the packed (ring.PackedBit)
// transport on the chosen semiring engine and returns the two charges.
func measureBool(engine string, n int) (unpacked, packed matmulRow) {
	rng := rand.New(rand.NewPCG(73, uint64(n)))
	rows := make([][]int64, n)
	for i := range rows {
		rows[i] = make([]int64, n)
		for j := range rows[i] {
			rows[i][j] = int64(rng.IntN(2))
		}
	}
	s := &ccmm.RowMat[int64]{Rows: rows}
	br := ring.Bool{}
	run := func(codec ring.BulkCodec[int64]) (rounds, words int64, p *ccmm.RowMat[int64]) {
		net := clique.New(n)
		defer net.Close()
		var err error
		if engine == "naive-gather" {
			p, err = ccmm.NaiveGather[int64](net, nil, br, codec, s, s)
		} else {
			p, err = ccmm.Semiring3D[int64](net, nil, br, codec, s, s)
		}
		check(err)
		return net.Rounds(), net.Words(), p
	}
	ru, wu, pu := run(ring.Int64{})
	rp, wp, pp := run(ring.PackedBit{})
	if !slices.EqualFunc(pu.Rows, pp.Rows, slices.Equal[[]int64]) {
		check(fmt.Errorf("matmul: packed Boolean product differs from unpacked, n=%d", n))
	}
	return matmulRow{"bool-" + engine + "-unpacked", n, ru, wu},
		matmulRow{"bool-" + engine + "-packed", n, rp, wp}
}

// matmulBench is the `ccbench matmul` experiment entry point.
func matmulBench() {
	var rows []matmulRow
	for _, n := range []int{27, 64, 100} {
		a, b := randSquare(n, 71), randSquare(n, 72)
		s, err := cc.NewClique(n)
		check(err)
		_, mm, err := s.MatMul(a, b)
		check(err)
		_, dp, err := s.DistanceProduct(a, b)
		check(err)
		check(s.Close())
		fmt.Printf("   session n=%d: MatMul %d rounds / %d words, DistanceProduct %d rounds / %d words\n",
			n, mm.Rounds, mm.Words, dp.Rounds, dp.Words)
		rows = append(rows,
			matmulRow{"session-matmul", n, mm.Rounds, mm.Words},
			matmulRow{"session-distance-product", n, dp.Rounds, dp.Words})
	}
	for _, cfg := range []struct {
		engine string
		n      int
	}{{"semiring-3d", 64}, {"semiring-3d", 512}, {"naive-gather", 512}} {
		u, p := measureBool(cfg.engine, cfg.n)
		rows = append(rows, u, p)
		fmt.Printf("   bool %s n=%d: %d → %d rounds (%.1fx), %d → %d words (%.1fx)\n",
			cfg.engine, cfg.n, u.Rounds, p.Rounds, float64(u.Rounds)/float64(p.Rounds),
			u.Words, p.Words, float64(u.Words)/float64(p.Words))
	}
	gateLedger("matmul",
		"rounds and words of one session product (density census included) and of Boolean products through "+
			"the packed and the unpacked transport; exact for the seed, gated for equality",
		rows)
}
