package clique_test

import (
	"runtime"
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

// peakMeter records how many tasks of a fan-out run at once.
type peakMeter struct{ running, peak atomic.Int32 }

// enter counts one task in and yields, so other tasks get a chance to
// overlap it.
func (m *peakMeter) enter() {
	r := m.running.Add(1)
	for {
		old := m.peak.Load()
		if r <= old || m.peak.CompareAndSwap(old, r) {
			break
		}
	}
	runtime.Gosched()
}

// leave counts one task out.
func (m *peakMeter) leave() { m.running.Add(-1) }

// TestLocalPool checks the standalone pool: full coverage, concurrency no
// wider than configured, reuse after Close, and the k<1 default.
func TestLocalPool(t *testing.T) {
	p := clique.NewLocalPool(2)
	defer p.Close()
	var m peakMeter
	hits := make([]int32, 50)
	p.RunLocal(len(hits), func(task int) {
		m.enter()
		defer m.leave()
		atomic.AddInt32(&hits[task], 1)
	})
	for task, h := range hits {
		if h != 1 {
			t.Fatalf("task %d ran %d times", task, h)
		}
	}
	if m.peak.Load() > 2 {
		t.Fatalf("observed %d concurrent tasks on a 2-worker pool", m.peak.Load())
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

// TestForEachConcurrencyBound pins WithWorkers(k) on a network: every
// node's task runs exactly once and never more than k at a time, the
// calling goroutine counted among the k.
func TestForEachConcurrencyBound(t *testing.T) {
	const n = 144
	for _, k := range []int{1, 2, 4} {
		c := clique.New(n, clique.WithWorkers(k))
		for rep := 0; rep < 20; rep++ {
			var m peakMeter
			hits := make([]int32, n)
			c.ForEach(func(v int) {
				m.enter()
				defer m.leave()
				atomic.AddInt32(&hits[v], 1)
			})
			for v, h := range hits {
				if h != 1 {
					t.Fatalf("workers=%d: node %d ran %d times", k, v, h)
				}
			}
			if p := m.peak.Load(); p > int32(k) {
				t.Fatalf("workers=%d: observed %d concurrent tasks", k, p)
			}
		}
		c.Close()
	}
}

// fanOut is one way to issue an n-task fan-out.
type fanOut struct {
	name string
	run  func(f func(int))
}

// fanOuts returns ForEach and RunLocal on a k-worker network of n nodes,
// RunLocal on a k-worker LocalPool, and the function that closes both.
func fanOuts(n, k int) (forEach, netRun, poolRun fanOut, close func()) {
	c := clique.New(n, clique.WithWorkers(k))
	p := clique.NewLocalPool(k)
	forEach = fanOut{"ForEach", c.ForEach}
	netRun = fanOut{"Network.RunLocal", func(f func(int)) { c.RunLocal(n, f) }}
	poolRun = fanOut{"LocalPool.RunLocal", func(f func(int)) { p.RunLocal(n, f) }}
	return forEach, netRun, poolRun, func() { c.Close(); p.Close() }
}

// TestNestedFanOutPanics checks that a fan-out issued from inside a task
// of a fan-out on the same pool fails fast: the outer call panics with the
// nesting message, and the pool serves the next fan-out normally.
func TestNestedFanOutPanics(t *testing.T) {
	const n = 8
	for _, k := range []int{2, 4} {
		forEach, netRun, poolRun, closeAll := fanOuts(n, k)
		for _, pair := range [][2]fanOut{
			{forEach, forEach}, {forEach, netRun}, {netRun, forEach}, {netRun, netRun}, {poolRun, poolRun},
		} {
			outer, inner := pair[0], pair[1]
			var got any
			func() {
				defer func() { got = recover() }()
				outer.run(func(task int) {
					if task == n-1 {
						inner.run(func(int) {})
					}
				})
			}()
			if got != "clique: fan-out called from inside a fan-out task" {
				t.Fatalf("workers=%d: %s inside %s: recovered %v, want the nesting panic", k, inner.name, outer.name, got)
			}
			var total atomic.Int32
			outer.run(func(int) { total.Add(1) })
			if total.Load() != n {
				t.Fatalf("workers=%d: %s after a nested fan-out ran %d of %d tasks", k, outer.name, total.Load(), n)
			}
		}
		closeAll()
	}
}

// TestFanOutPanicWaitsForEveryTask checks that a panicking task — the
// first, which the caller usually claims itself, or the last — unwinds
// the caller only after every other task has started and finished exactly
// once.
func TestFanOutPanicWaitsForEveryTask(t *testing.T) {
	const n = 64
	forEach, _, poolRun, closeAll := fanOuts(n, 4)
	defer closeAll()
	for _, fo := range []fanOut{forEach, poolRun} {
		for _, bad := range []int{0, n - 1} {
			var started, finished [n]atomic.Int32
			func() {
				defer func() {
					if r := recover(); r != "boom" {
						t.Fatalf("%s: recovered %v, want boom", fo.name, r)
					}
					for task := 0; task < n; task++ {
						want := int32(1)
						if task == bad {
							want = 0
						}
						if s, f := started[task].Load(), finished[task].Load(); s != 1 || f != want {
							t.Fatalf("%s, task %d panicking: task %d started %d and finished %d times when the caller unwound", fo.name, bad, task, s, f)
						}
					}
				}()
				fo.run(func(task int) {
					started[task].Add(1)
					if task == bad {
						panic("boom")
					}
					for i := 0; i < 50; i++ {
						runtime.Gosched()
					}
					finished[task].Add(1)
				})
			}()
		}
	}
}
