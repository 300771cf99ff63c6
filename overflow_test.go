package algclique_test

import (
	"errors"
	"math"
	"testing"

	cc "github.com/algebraic-clique/algclique"
)

// TestDistanceProductRefusesOverflowingEntries: a finite entry whose double
// wraps around int64 used to come back as Inf — "no path" — with a nil
// error. Both operand forms now refuse it with ErrOutOfRange, and entries
// just inside the bound still multiply exactly.
func TestDistanceProductRefusesOverflowingEntries(t *testing.T) {
	const m = math.MinInt64/2 - 10
	a := cc.Mat{{m, cc.Inf}, {cc.Inf, 0}}
	s := openSession(t, 2)
	if p, _, err := s.DistanceProduct(a, a); !errors.Is(err, cc.ErrOutOfRange) {
		t.Fatalf("DistanceProduct: (%v, %v), want ErrOutOfRange", p, err)
	}
	csr, err := cc.CSRFromMat(a, cc.Inf)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.DistanceProductCSR(csr, csr); !errors.Is(err, cc.ErrOutOfRange) {
		t.Fatalf("DistanceProductCSR: %v, want ErrOutOfRange", err)
	}

	const lim = cc.Inf/2 - 1
	for _, x := range []int64{lim, -lim} {
		p, _, err := s.DistanceProduct(cc.Mat{{x, cc.Inf}, {cc.Inf, 0}}, cc.Mat{{x, cc.Inf}, {cc.Inf, 0}})
		if err != nil || p[0][0] != 2*x {
			t.Fatalf("entry %d at the bound: (%v, %v), want [0][0] = %d", x, p, err, 2*x)
		}
	}
}

// TestAPSPRefusesOverflowingWeights: on the path 0 → 1 → 2 with weights
// (Inf−1, 1) the distance d(0, 2) used to come back as Inf — a reachable
// pair reported unreachable. Every weighted APSP entry point now refuses
// the instance with ErrOutOfRange, and weights at the bound
// (2(n−1)·|w| < Inf) still give exact distances.
func TestAPSPRefusesOverflowingWeights(t *testing.T) {
	path := func(w01, w12 int64) *cc.Weighted {
		g := cc.NewWeighted(3, true)
		g.SetEdge(0, 1, w01)
		g.SetEdge(1, 2, w12)
		return g
	}
	apsps := map[string]func(s *cc.Clique, g *cc.Weighted) (*cc.APSPResult, error){
		"APSP": func(s *cc.Clique, g *cc.Weighted) (*cc.APSPResult, error) {
			res, _, err := s.APSP(g)
			return res, err
		},
		"APSPNaive": func(s *cc.Clique, g *cc.Weighted) (*cc.APSPResult, error) {
			res, _, err := s.APSPNaive(g)
			return res, err
		},
		"APSPSmallWeights": func(s *cc.Clique, g *cc.Weighted) (*cc.APSPResult, error) {
			res, _, err := s.APSPSmallWeights(g)
			return res, err
		},
		"APSPApprox": func(s *cc.Clique, g *cc.Weighted) (*cc.APSPResult, error) {
			res, _, _, err := s.APSPApprox(g)
			return res, err
		},
		"APSPCSR": func(s *cc.Clique, g *cc.Weighted) (*cc.APSPResult, error) {
			m := make(cc.Mat, g.N())
			for u := range m {
				m[u] = make([]int64, g.N())
				for v := range m[u] {
					m[u][v] = cc.Inf
					if u != v && g.HasEdge(u, v) {
						m[u][v] = g.Weight(u, v)
					}
				}
			}
			csr, err := cc.CSRFromMat(m, cc.Inf)
			if err != nil {
				return nil, err
			}
			_, _, err = s.APSPCSR(csr)
			return nil, err
		},
	}
	for name, run := range apsps {
		s := openSession(t, 3)
		if res, err := run(s, path(cc.Inf-1, 1)); !errors.Is(err, cc.ErrOutOfRange) {
			t.Errorf("%s: (%v, %v), want ErrOutOfRange", name, res, err)
		}
	}

	// 2(n−1)·|w| < Inf at n = 3: |w| ≤ (Inf−1)/4.
	const lim = (cc.Inf - 1) / 4
	res, _, err := openSession(t, 3).APSP(path(lim, lim))
	if err != nil || res.Dist[0][2] != 2*lim {
		t.Fatalf("APSP at the bound: err %v, d(0, 2) = %v, want %d", err, res, 2*lim)
	}
	if _, _, err := openSession(t, 3).APSP(path(lim+1, 1)); !errors.Is(err, cc.ErrOutOfRange) {
		t.Fatalf("APSP just past the bound: %v, want ErrOutOfRange", err)
	}
}
