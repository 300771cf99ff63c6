package algclique

import (
	"errors"
	"math/rand/v2"
	"runtime"
	"testing"
)

// gnpCSR draws a GNP(n, avgDeg/n) adjacency straight into nil-Val CSR form
// (no dense row ever exists, so the generator cannot mask an n×n
// allocation in the code under test).
func gnpCSR(n int, avgDeg float64, seed uint64) *CSR {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))
	p := avgDeg / float64(n)
	m := &CSR{N: n, RowPtr: make([]int64, n+1)}
	for v := 0; v < n; v++ {
		for c := 0; c < n; c++ {
			if rng.Float64() < p {
				m.Col = append(m.Col, int32(c))
			}
		}
		m.RowPtr[v+1] = int64(len(m.Col))
	}
	return m
}

// soleNetwork returns the one simulator network a single-size session built.
func soleNetwork(t *testing.T, s *Clique) (size int, sparse bool) {
	t.Helper()
	if len(s.nets) != 1 {
		t.Fatalf("session holds %d networks, want 1", len(s.nets))
	}
	for size, net := range s.nets {
		return size, net.SparseLinks()
	}
	panic("unreachable")
}

// TestLinkStateFollowsTraffic pins what selects a session network's link
// form: the traffic, not n. CSR-engine traffic at n = 2000 touches a
// thousandth of the links, so the network stays in sparse-link form, the
// warm call allocates next to nothing and the heap never holds an n×n
// array; one dense product at n = 256 uses most links and leaves its
// network on the flat arrays.
func TestLinkStateFollowsTraffic(t *testing.T) {
	const n = 2000
	adj := gnpCSR(n, 2, 1)
	s, err := NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	square := func() {
		if p, _, err := s.SquareAdjacencyCSR(adj); err != nil || !p.IsSparse() {
			t.Fatalf("SquareAdjacencyCSR: sparse = %v, err = %v", p.IsSparse(), err)
		}
	}
	for i := 0; i < 10; i++ {
		square()
	}
	if size, sparse := soleNetwork(t, s); !sparse || size < n {
		t.Fatalf("CSR-engine traffic left the %d-node network with sparse links = %v", size, sparse)
	}
	if allocs := testing.AllocsPerRun(3, square); allocs >= n/8 {
		t.Fatalf("warm SquareAdjacencyCSR allocates %.0f objects, want < n/8 = %d", allocs, n/8)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc >= 32<<20 {
		t.Fatalf("heap after warm GNP(2000, 2/n) squares is %d bytes, want below one dense n×n matrix (32 MB)", ms.HeapAlloc)
	}

	const m = 256
	rng := rand.New(rand.NewPCG(2, 2))
	a, b := make(Mat, m), make(Mat, m)
	for i := range a {
		a[i], b[i] = make([]int64, m), make([]int64, m)
		for j := range a[i] {
			a[i][j], b[i][j] = rng.Int64N(100), rng.Int64N(100)
		}
	}
	d, err := NewClique(m)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, _, err := d.MatMul(a, b); err != nil {
		t.Fatal(err)
	}
	if size, sparse := soleNetwork(t, d); sparse {
		t.Fatalf("one dense product left the %d-node network on sparse links", size)
	}
}

// TestCSRFaultInjectionOnSparseLinks arms link-plane faults on CSR products
// whose network stays in sparse-link form. The outcome is the fault
// plane's usual contract — a certified-correct answer or a typed error —
// with faults demonstrably injected, at n = 64 (the pinned outcome is the
// flat-array one: same draws, same visit order) and at n = 2000.
func TestCSRFaultInjectionOnSparseLinks(t *testing.T) {
	plan := FaultPlan{Seed: 5, DropProb: 0.02, DupProb: 0.02, CorruptProb: 0.05}
	for _, n := range []int{64, 2000} {
		adj := gnpCSR(n, 2, uint64(n))
		clean, err := NewClique(n)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := clean.MatMulCSR(adj, adj)
		clean.Close()
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewClique(n)
		if err != nil {
			t.Fatal(err)
		}
		got, stats, err := s.MatMulCSR(adj, adj, WithFaultInjection(plan))
		_, sparse := soleNetwork(t, s)
		s.Close()
		if !sparse {
			t.Fatalf("n=%d: CSR-engine traffic moved the network off sparse links", n)
		}
		if stats.Faults.Dropped+stats.Faults.Duplicated+stats.Faults.Corrupted == 0 {
			t.Fatalf("n=%d: the armed plan injected nothing: %+v", n, stats.Faults)
		}
		// What the same call does on a network held on flat arrays from its
		// first flush (n = 2000 would spend 770 MB on them; its outcome is
		// not pinned).
		if flat := (FaultStats{Corrupted: 21, Dropped: 13}); n == 64 && (stats.Faults != flat || stats.Rounds != 16) {
			t.Fatalf("n=64: %+v in %d rounds on sparse links, want the flat-array outcome %+v in 16", stats.Faults, stats.Rounds, flat)
		}
		if err != nil {
			var fe *FaultError
			var ce *CertificationError
			if !errors.As(err, &fe) && !errors.As(err, &ce) {
				t.Fatalf("n=%d: err = %v (%T), want a typed fault or certification error", n, err, err)
			}
			continue
		}
		if !got.IsSparse() || got.Sparse.NNZ() != want.Sparse.NNZ() {
			t.Fatalf("n=%d: faulted product returned without error and differs from the clean one", n)
		}
	}
}
