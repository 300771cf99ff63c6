package ccmm

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ring"
)

// orderSensitive is a deliberately non-commutative "semiring" over int64:
// a fold's value depends on the order its operands arrive in, so a sort
// that permutes equal keys shows up in csrFold's output.
type orderSensitive struct{ ring.Int64 }

func (orderSensitive) Add(a, b int64) int64 { return a*31 + b }

// refFold is csrFold as it was written over the standard library's
// reflection-based stable sort — the reference order.
func refFold(sr ring.Semiring[int64], zero int64, acc []ring.Tuple[int64]) []ring.Tuple[int64] {
	sort.SliceStable(acc, func(i, j int) bool { return acc[i].Idx < acc[j].Idx })
	var out []ring.Tuple[int64]
	for i := 0; i < len(acc); {
		v := acc[i].Val
		j := i + 1
		for ; j < len(acc) && acc[j].Idx == acc[i].Idx; j++ {
			v = sr.Add(v, acc[j].Val)
		}
		if !sr.Equal(v, zero) {
			out = append(out, ring.Tuple[int64]{Idx: acc[i].Idx, Val: v})
		}
		i = j
	}
	return out
}

// TestCSRSortsMatchStdlibStableOrder is the property behind replacing
// sort.SliceStable in the tile engine: on inputs with many equal keys —
// the shape the gather really has, one key per partial product of an
// output cell — csrFold and gatherRuns produce exactly what the
// reflection-based stable sort produced.
func TestCSRSortsMatchStdlibStableOrder(t *testing.T) {
	rng := rand.New(rand.NewPCG(16, 4096))
	sr := orderSensitive{}
	for trial := 0; trial < 200; trial++ {
		m := rng.IntN(400)
		keys := 1 + rng.IntN(12) // few distinct keys: long equal runs
		if trial%4 == 0 {
			keys = 1 + rng.IntN(2000)
		}

		acc := make([]ring.Tuple[int64], m)
		for i := range acc {
			acc[i] = ring.Tuple[int64]{Idx: int32(rng.IntN(keys)), Val: rng.Int64N(1000) - 3}
		}
		want := refFold(sr, 0, append([]ring.Tuple[int64](nil), acc...))
		if got := csrFold[int64](sr, 0, acc); !(len(got) == 0 && len(want) == 0) && !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: csrFold diverged from the stable-sort reference\n got %v\nwant %v", trial, got, want)
		}

		pairs := make([]ring.Tuple[ring.Tuple[int64]], m)
		for i := range pairs {
			pairs[i] = ring.Tuple[ring.Tuple[int64]]{
				Idx: int32(rng.IntN(keys)),
				Val: ring.Tuple[int64]{Idx: int32(rng.IntN(keys)), Val: int64(i)}, // Val: the emit position
			}
		}
		ref := append([]ring.Tuple[ring.Tuple[int64]](nil), pairs...)
		sort.SliceStable(ref, func(i, j int) bool { return ref[i].Idx < ref[j].Idx })
		var wantRows []int32
		var wantRuns [][]ring.Tuple[int64]
		for i, p := range ref {
			if i == 0 || p.Idx != ref[i-1].Idx {
				wantRows = append(wantRows, p.Idx)
				wantRuns = append(wantRuns, nil)
			}
			wantRuns[len(wantRuns)-1] = append(wantRuns[len(wantRuns)-1], p.Val)
		}

		var gotRows []int32
		var gotRuns [][]ring.Tuple[int64]
		gatherRuns(pairs, make([]ring.Tuple[int64], m), func(x int, run []ring.Tuple[int64]) {
			gotRows = append(gotRows, int32(x))
			gotRuns = append(gotRuns, run)
		})
		if len(gotRuns) != len(wantRuns) {
			t.Fatalf("trial %d: gatherRuns cut %d runs, want %d", trial, len(gotRuns), len(wantRuns))
		}
		for r := range wantRuns {
			if gotRows[r] != wantRows[r] || !reflect.DeepEqual(gotRuns[r], wantRuns[r]) {
				t.Fatalf("trial %d: run %d diverged from the stable-sort reference\n got row %d %v\nwant row %d %v",
					trial, r, gotRows[r], gotRuns[r], wantRows[r], wantRuns[r])
			}
		}
	}
}
