package ccmm

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"reflect"
	"testing"

	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// With one body per engine, "direct ≡ wire" can no longer catch a schedule
// bug: both transports would drift together. The golden ledger pins the
// schedules themselves — rounds, words, flushes, and every phase — as they
// were charged at the commit that still had a separate encoded body per
// engine (PR 11, c59ce58), for every engine × algebra × awkward size, and
// both transports must reproduce it exactly. A deliberate schedule change
// regenerates it with
//
//	go test ./internal/ccmm -run TestGoldenLedger -update
//
// and the diff of testdata/golden_ledger.json is then the reviewable
// statement of what the change cost.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_ledger.json from this tree's direct-transport ledgers")

const goldenPath = "testdata/golden_ledger.json"

type goldenLedger struct {
	Rounds, Words, Flushes int64
	Phases                 []clique.PhaseStat
}

var goldenSizes = []int{8, 9, 16, 27, 30, 64, 100}

// randMat draws an n×n operand: each entry is gen's with probability
// keep and zero otherwise.
func randMat[T any](rng *rand.Rand, n int, keep float64, zero T, gen func(*rand.Rand) T) *RowMat[T] {
	m := NewRowMat[T](n)
	for v := range m.Rows {
		for j := range m.Rows[v] {
			m.Rows[v][j] = zero
			if rng.Float64() < keep {
				m.Rows[v][j] = gen(rng)
			}
		}
	}
	return m
}

// goldenAlgebra runs every engine of the parity table that applies to the
// algebra at every golden size on transport tr and records the ledgers
// under "engine/algebra/n=N".
func goldenAlgebra[T any](t *testing.T, tr clique.Transport, name string, sr ring.Semiring[T], codec ring.Codec[T], gen func(*rand.Rand) T, out map[string]goldenLedger) {
	t.Helper()
	zero := sr.Zero()
	for _, n := range goldenSizes {
		rng := rand.New(rand.NewPCG(0x901d, uint64(n)))
		dense := [2]*RowMat[T]{randMat(rng, n, 1, zero, gen), randMat(rng, n, 1, zero, gen)}
		// Sparse operands at average degree 2, comfortably inside the tile
		// engines' Σ ca·rb < 2n² bound.
		sparse := [2]*RowMat[T]{randMat(rng, n, 2/float64(n), zero, gen), randMat(rng, n, 2/float64(n), zero, gen)}
		for _, e := range engineTable(n, sr, codec) {
			ops := dense
			if e.sparse {
				ops = sparse
			}
			net := clique.New(n, clique.WithTransport(tr))
			if _, err := e.mul(net, nil, ops[0], ops[1]); err != nil {
				t.Fatalf("%s/%s n=%d on %v: %v", e.name, name, n, tr, err)
			}
			st := net.Stats()
			net.Close()
			out[fmt.Sprintf("%s/%s/n=%d", e.name, name, n)] = goldenLedger{st.Rounds, st.Words, st.Flushes, st.Phases}
		}
	}
}

// goldenRun collects the full ledger table on one transport.
func goldenRun(t *testing.T, tr clique.Transport) map[string]goldenLedger {
	t.Helper()
	out := map[string]goldenLedger{}
	goldenAlgebra[int64](t, tr, "int64", ring.Int64{}, ring.Int64{},
		func(rng *rand.Rand) int64 { return 1 + rng.Int64N(50) }, out)
	goldenAlgebra[int64](t, tr, "minplus", ring.MinPlus{}, ring.MinPlus{},
		func(rng *rand.Rand) int64 { return rng.Int64N(100) - 20 }, out)
	goldenAlgebra[ring.ValW](t, tr, "minplusw", ring.MinPlusW{}, ring.MinPlusW{},
		func(rng *rand.Rand) ring.ValW { return ring.ValW{V: rng.Int64N(100), W: rng.Int64N(8)} }, out)
	goldenAlgebra[int64](t, tr, "packedbool", ring.Bool{}, ring.PackedBit{}, genTrue, out)
	return out
}

func TestGoldenLedger(t *testing.T) {
	if *updateGolden {
		got := goldenRun(t, clique.TransportDirect)
		buf, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d ledgers to %s", len(got), goldenPath)
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]goldenLedger{}
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	for _, tr := range []clique.Transport{clique.TransportDirect, clique.TransportWire} {
		got := goldenRun(t, tr)
		if len(got) != len(want) {
			t.Errorf("%v: %d ledgers, golden file has %d", tr, len(got), len(want))
		}
		for key, w := range want {
			if g, ok := got[key]; !ok {
				t.Errorf("%v: %s missing", tr, key)
			} else if !reflect.DeepEqual(g, w) {
				t.Errorf("%v: %s charged\n  %+v\ngolden\n  %+v", tr, key, g, w)
			}
		}
	}
}
