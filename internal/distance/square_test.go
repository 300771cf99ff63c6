package distance_test

import (
	"errors"
	"slices"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/distance"
	"github.com/algebraic-clique/algclique/internal/graphs"
)

// TestSquareReturnsSupersededIterates drives distance.Square with a local
// Boolean squaring — rows filled under ForEach into matrices off the
// network's free list, no communication — so every round the run charges
// is a fixed-point round, and a recycle hook sees every matrix handed back.
// On a path (capped: all ⌈log₂ n⌉ squarings), a star (settled after two)
// and a step that fails at squaring 1, every superseded iterate must be
// returned exactly once and the returned iterate never. A run asks after
// every squaring but the last one the cap allows, so it charges one Any
// round per squaring when it settles before the cap and one fewer when it
// reaches the cap.
func TestSquareReturnsSupersededIterates(t *testing.T) {
	const n = 16
	star := graphs.NewGraph(n, false)
	for v := 1; v < n; v++ {
		star.AddEdge(0, v)
	}
	errStep := errors.New("step failed")
	for _, tc := range []struct {
		name      string
		g         *graphs.Graph
		failAt    int // squaring whose step fails, −1 for none
		squarings int
		settled   bool
	}{
		{"path", graphs.Path(n, false), -1, distance.SquaringCap(n), false},
		{"star", star, -1, 2, true},
		{"fail", graphs.Path(n, false), 1, 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := clique.New(n)
			defer net.Close()
			sc := ccmm.ScratchOf(net)
			// live holds the iterates Square has been handed and not yet
			// returned: a pointer the free list hands out again is a new
			// iterate.
			live := map[*ccmm.RowMat[int64]]bool{}
			var bad []string
			sc.SetRecycleHook(func(m any) {
				x := m.(*ccmm.RowMat[int64])
				if !live[x] {
					bad = append(bad, "a matrix that is not a live iterate was returned")
				}
				delete(live, x)
			})
			seed := ccmm.AdjacencyRows(sc, tc.g, true)
			live[seed] = true
			squarings := 0
			step := func(s int, cur *ccmm.RowMat[int64]) (*ccmm.RowMat[int64], error) {
				squarings++
				if s == tc.failAt {
					return nil, errStep
				}
				next := ccmm.GetMat[int64](sc, n)
				net.ForEach(func(v int) {
					row := next.Rows[v]
					clear(row)
					for k, x := range cur.Rows[v] {
						if x == 0 {
							continue
						}
						for j, y := range cur.Rows[k] {
							row[j] |= y
						}
					}
				})
				live[next] = true
				return next, nil
			}
			changed := func(old, cur *ccmm.RowMat[int64], v int) bool {
				return !slices.Equal(old.Rows[v], cur.Rows[v])
			}
			got, settled, err := distance.Square(net, n, seed, step, changed,
				func(m *ccmm.RowMat[int64]) { ccmm.PutMat(sc, m) })
			for _, b := range bad {
				t.Error(b)
			}
			if squarings != tc.squarings || settled != tc.settled {
				t.Errorf("ran %d squarings, settled %v; want %d, %v", squarings, settled, tc.squarings, tc.settled)
			}
			checks := int64(tc.squarings - 1)
			if tc.settled {
				checks = int64(tc.squarings)
			}
			if r := net.Rounds(); r != checks {
				t.Errorf("charged %d rounds, want %d fixed-point rounds", r, checks)
			}
			if tc.failAt >= 0 {
				if !errors.Is(err, errStep) || got != nil {
					t.Fatalf("Square = %v, %v; want nil, the step's error", got, err)
				}
				if len(live) != 0 {
					t.Errorf("%d iterates not returned on the error path", len(live))
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(live) != 1 || !live[got] {
				t.Errorf("%d iterates outstanding, want only the returned one", len(live))
			}
			for v, row := range got.Rows {
				for j, x := range row {
					if x != 1 {
						t.Fatalf("closure entry (%d,%d) = %d on a connected graph, want 1", v, j, x)
					}
				}
			}
		})
	}
}
