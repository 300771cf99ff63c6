package clique_test

import (
	"sync/atomic"
	"testing"

	"github.com/algebraic-clique/algclique/internal/clique"
)

// TestRunLocalCoversEveryTask checks that Network.RunLocal runs every task
// exactly once for task counts above, equal to, and below the worker count,
// and that the single-worker path degrades to a plain loop.
func TestRunLocalCoversEveryTask(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		c := clique.New(4, clique.WithWorkers(workers))
		for _, tasks := range []int{0, 1, 3, 7, 100} {
			hits := make([]int32, tasks)
			c.RunLocal(tasks, func(task int) {
				atomic.AddInt32(&hits[task], 1)
			})
			for task, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d tasks=%d: task %d ran %d times", workers, tasks, task, h)
				}
			}
		}
		c.Close()
	}
}

// TestRunLocalSharesForEachPool interleaves ForEach and RunLocal on one
// network: both must keep working after the other, and after a Close the
// pool restarts lazily.
func TestRunLocalSharesForEachPool(t *testing.T) {
	c := clique.New(3, clique.WithWorkers(2))
	var total atomic.Int64
	c.ForEach(func(v int) { total.Add(1) })
	c.RunLocal(10, func(int) { total.Add(1) })
	c.Close()
	c.RunLocal(5, func(int) { total.Add(1) })
	if got := total.Load(); got != 18 {
		t.Fatalf("ran %d tasks, want 18", got)
	}
}

// TestWarmFanOutAllocatesNothing pins that the pool owns the fan-out's wait
// group and panic cell: on a warm network a ForEach or RunLocal with a
// pre-built closure allocates nothing, on the pool and on the serial path.
func TestWarmFanOutAllocatesNothing(t *testing.T) {
	for _, workers := range []int{1, 4} {
		c := clique.New(144, clique.WithWorkers(workers))
		var total atomic.Int64
		f := func(int) { total.Add(1) }
		c.ForEach(f) // starts the pool
		if a := testing.AllocsPerRun(100, func() { c.ForEach(f) }); a != 0 {
			t.Errorf("workers=%d: warm ForEach allocates %.1f times, want 0", workers, a)
		}
		if a := testing.AllocsPerRun(100, func() { c.RunLocal(7, f) }); a != 0 {
			t.Errorf("workers=%d: warm RunLocal allocates %.1f times, want 0", workers, a)
		}
		c.Close()
	}
}

// TestLocalPool checks the standalone pool: full coverage, concurrency no
// wider than configured, reuse after Close, and the k<1 default.
func TestLocalPool(t *testing.T) {
	p := clique.NewLocalPool(2)
	defer p.Close()
	var running, peak atomic.Int32
	hits := make([]int32, 50)
	p.RunLocal(len(hits), func(task int) {
		r := running.Add(1)
		for {
			old := peak.Load()
			if r <= old || peak.CompareAndSwap(old, r) {
				break
			}
		}
		atomic.AddInt32(&hits[task], 1)
		running.Add(-1)
	})
	for task, h := range hits {
		if h != 1 {
			t.Fatalf("task %d ran %d times", task, h)
		}
	}
	if peak.Load() > 2 {
		t.Fatalf("observed %d concurrent tasks on a 2-worker pool", peak.Load())
	}
	p.Close()
	ran := false
	p.RunLocal(1, func(int) { ran = true })
	if !ran {
		t.Fatal("pool unusable after Close")
	}
	if clique.NewLocalPool(0) == nil {
		t.Fatal("NewLocalPool(0) returned nil")
	}
}
