package matrix

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ring"
)

// testWorkers is a plain goroutine-pool Workers implementation for tests
// and benchmarks (the production implementations live in internal/clique:
// Network.RunLocal and LocalPool).
type testWorkers struct {
	k int
}

func newTestWorkers() *testWorkers { return &testWorkers{k: runtime.GOMAXPROCS(0)} }

func (w *testWorkers) close() {}

func (w *testWorkers) RunLocal(tasks int, f func(int)) {
	if w.k <= 1 || tasks <= 1 {
		for t := 0; t < tasks; t++ {
			f(t)
		}
		return
	}
	sem := make(chan struct{}, w.k)
	var wg sync.WaitGroup
	wg.Add(tasks)
	for t := 0; t < tasks; t++ {
		sem <- struct{}{}
		go func(t int) {
			defer wg.Done()
			f(t)
			<-sem
		}(t)
	}
	wg.Wait()
}

func withWorkerCounts(t *testing.T, f func(t *testing.T, w *testWorkers)) {
	t.Helper()
	for _, k := range []int{1, 2, runtime.GOMAXPROCS(0)} {
		t.Run(fmt.Sprintf("workers=%d", k), func(t *testing.T) {
			f(t, &testWorkers{k: k})
		})
	}
}

func TestParMulIntoMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 92))
	for _, n := range []int{1, 5, 16, 33, 100, 129} {
		a, b := New[int64](n, n), New[int64](n, n)
		for i := range a.e {
			a.e[i] = rng.Int64N(50) - 25
			b.e[i] = rng.Int64N(50) - 25
		}
		want := Mul[int64](ring.Int64{}, a, b)
		withWorkerCounts(t, func(t *testing.T, w *testWorkers) {
			got := ParMul[int64](w, ring.Int64{}, a, b)
			if !Equal[int64](ring.Int64{}, want, got) {
				t.Fatalf("n=%d: ParMul differs from Mul", n)
			}
		})
		// nil Workers degrades to the sequential kernel.
		got := ParMul[int64](nil, ring.Int64{}, a, b)
		if !Equal[int64](ring.Int64{}, want, got) {
			t.Fatalf("n=%d: ParMul(nil) differs from Mul", n)
		}
	}
}

func TestParMulIntoBoolAndMinPlus(t *testing.T) {
	rng := rand.New(rand.NewPCG(93, 94))
	n := 130
	ab, bb := New[int64](n, n), New[int64](n, n)
	for i := range ab.e {
		if rng.IntN(3) == 0 {
			ab.e[i] = 1
		}
		if rng.IntN(3) == 0 {
			bb.e[i] = 1
		}
	}
	wantB := Mul[int64](ring.Bool{}, ab, bb)
	am, bm := New[int64](n, n), New[int64](n, n)
	for i := range am.e {
		if rng.IntN(5) == 0 {
			am.e[i] = ring.Inf
		} else {
			am.e[i] = rng.Int64N(100)
		}
		if rng.IntN(5) == 0 {
			bm.e[i] = ring.Inf
		} else {
			bm.e[i] = rng.Int64N(100)
		}
	}
	wantM := Mul[int64](ring.MinPlus{}, am, bm)
	withWorkerCounts(t, func(t *testing.T, w *testWorkers) {
		if got := ParMul[int64](w, ring.Bool{}, ab, bb); !Equal[int64](ring.Int64{}, wantB, got) {
			t.Fatalf("Boolean ParMul differs from Mul")
		}
		if got := ParMul[int64](w, ring.MinPlus{}, am, bm); !Equal[int64](ring.MinPlus{}, wantM, got) {
			t.Fatalf("min-plus ParMul differs from Mul")
		}
	})
}

// TestParStrassenDeterministic proves the parallel Strassen recursion is
// bit-identical to the sequential one for every worker count — including
// sizes that trigger the one-level (7-task) and two-level (49-task)
// expansions, padding, and the odd-size school-book fallback.
func TestParStrassenDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(95, 96))
	for _, n := range []int{0, 1, 7, 64, 65, 96, 128, 200, 256, 300} {
		a, b := New[int64](n, n), New[int64](n, n)
		for i := range a.e {
			a.e[i] = rng.Int64N(100) - 50
			b.e[i] = rng.Int64N(100) - 50
		}
		want := Strassen[int64](ring.Int64{}, a, b, 16)
		withWorkerCounts(t, func(t *testing.T, w *testWorkers) {
			got := ParStrassen[int64](w, ring.Int64{}, a, b, 16)
			if !Equal[int64](ring.Int64{}, want, got) {
				t.Fatalf("n=%d: ParStrassen differs from Strassen", n)
			}
		})
		if got := ParStrassen[int64](nil, ring.Int64{}, a, b, 16); !Equal[int64](ring.Int64{}, want, got) {
			t.Fatalf("n=%d: ParStrassen(nil) differs from Strassen", n)
		}
	}
}

// TestParStrassenMatchesSchoolbook anchors the parallel recursion to the
// plain product, not just to the sequential Strassen.
func TestParStrassenMatchesSchoolbook(t *testing.T) {
	rng := rand.New(rand.NewPCG(97, 98))
	n := 96
	a, b := New[int64](n, n), New[int64](n, n)
	for i := range a.e {
		a.e[i] = rng.Int64N(20) - 10
		b.e[i] = rng.Int64N(20) - 10
	}
	want := Mul[int64](ring.Int64{}, a, b)
	w := newTestWorkers()
	if got := ParStrassen[int64](w, ring.Int64{}, a, b, 16); !Equal[int64](ring.Int64{}, want, got) {
		t.Fatalf("ParStrassen differs from the school-book product")
	}
}
