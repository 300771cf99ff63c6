package distance_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/distance"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

var transports = []clique.Transport{clique.TransportDirect, clique.TransportWire}

// TestHopBoundAtItsEntries: APSP's squaring s ships at
// B_s = min(2^{s+1}, n−1)·maxW and Seidel's level k caps ∞ at
// L_k = ⌈(n−1)/2^{k+1}⌉, and the inputs meet those bounds with equality.
// On a path whose every weight is maxW, squaring s's product holds
// d(0, min(2^{s+1}, n−1)) = B_s; on an unweighted path, level k's
// distances reach L_k (a second Seidel case leaves two nodes isolated, so
// the cap itself is used). maxW = 5 makes no B_s/2 + 1 a power of two, so
// no squaring's entries fit the field of half its bound. On both
// transports the answers must be exact (APSP's routing table must pass
// ValidateRouting), both must charge equal Stats, and the run must charge
// fewer words than the same loop at one bound for every squaring or level
// ((n−1)·maxW; a cap of n and a product bound of n²). At n = 16 APSP's
// 8-entry block rows take one word (operands) or two (partials) at every
// width its loop uses, and the bilinear engine's pieces as many words at
// either Seidel width, so there the run must charge no more.
func TestHopBoundAtItsEntries(t *testing.T) {
	const maxW = 5
	for _, n := range []int{16, 27, 64} {
		t.Run(fmt.Sprintf("apsp/n=%d", n), func(t *testing.T) {
			g := graphs.NewWeighted(n, false)
			for v := 0; v+1 < n; v++ {
				g.SetEdge(v, v+1, maxW)
			}
			want, err := graphs.FloydWarshall(g)
			if err != nil {
				t.Fatal(err)
			}
			for s := range distance.SquaringCap(n) {
				if b, d := distance.SquaringBound(n, maxW, s), want.At(0, min(1<<(s+1), n-1)); b != d {
					t.Fatalf("squaring %d: B_s = %d, but its product's entry d(0, %d) = %d", s, b, min(1<<(s+1), n-1), d)
				}
			}
			run := func(tr clique.Transport, apsp func(*clique.Network, *graphs.Weighted) (*distance.Result, error)) clique.Stats {
				net := clique.New(n, clique.WithTransport(tr))
				defer net.Close()
				res, err := apsp(net, g)
				if err != nil {
					t.Fatal(err)
				}
				dist := res.Dist.Collect()
				if !matrix.Equal[int64](ring.MinPlus{}, dist, want) {
					t.Fatalf("%v: distances differ from Floyd–Warshall", tr)
				}
				if err := distance.ValidateRouting(g, dist, res.Next.Collect()); err != nil {
					t.Fatalf("%v: %v", tr, err)
				}
				return net.Stats()
			}
			direct, wire := run(clique.TransportDirect, distance.APSPSemiring), run(clique.TransportWire, distance.APSPSemiring)
			if !reflect.DeepEqual(wire, direct) {
				t.Fatalf("wire charged %+v, direct %+v", wire, direct)
			}
			squarings := 0
			for _, p := range direct.Phases {
				if strings.HasPrefix(p.Name, "apsp3d/square-") {
					squarings++
				}
			}
			if squarings != distance.SquaringCap(n) {
				t.Errorf("APSP ran %d squarings on the path, want all %d", squarings, distance.SquaringCap(n))
			}
			if single := run(clique.TransportDirect, distance.APSPSemiringSingleBound); !fewerWords(n, direct, single) {
				t.Errorf("hop-bound APSP charged %d words, single-bound %d", direct.Words, single.Words)
			}
		})
	}

	for _, n := range []int{16, 27, 64} {
		path := graphs.Path(n, false)
		isolated := graphs.NewGraph(n, false)
		for v := 0; v+3 < n; v++ {
			isolated.AddEdge(v, v+1)
		}
		for _, in := range []struct {
			name string
			g    *graphs.Graph
		}{{"path", path}, {"path+isolated", isolated}} {
			for _, e := range []ccmm.Engine{ccmm.EngineAuto, ccmm.EngineFast} {
				if e == ccmm.EngineFast && n == 27 {
					continue // the bilinear engine wants a perfect square
				}
				t.Run(fmt.Sprintf("seidel/%s/%v/n=%d", in.name, e, n), func(t *testing.T) {
					want := graphs.BFSAllPairs(in.g)
					if in.name == "path" {
						for k := 0; 1<<k < n-1; k++ {
							// The largest distance of G^{2^{k+1}}, ⌈(n−1)/2^{k+1}⌉.
							if l, _ := distance.SeidelBounds(n, k); (want.At(0, n-1)+1<<(k+1)-1)>>(k+1) != l {
								t.Fatalf("level %d: L_k = %d is not the path's largest distance in G^{2^{k+1}}", k, l)
							}
						}
					}
					run := func(tr clique.Transport, seidel func(*clique.Network, ccmm.Engine, *graphs.Graph) (*ccmm.RowMat[int64], error)) clique.Stats {
						net := clique.New(n, clique.WithTransport(tr))
						defer net.Close()
						d, err := seidel(net, e, in.g)
						if err != nil {
							t.Fatal(err)
						}
						if !matrix.Equal[int64](ring.MinPlus{}, d.Collect(), want) {
							t.Fatalf("%v: Seidel distances differ from BFS", tr)
						}
						return net.Stats()
					}
					direct, wire := run(clique.TransportDirect, distance.APSPSeidel), run(clique.TransportWire, distance.APSPSeidel)
					if !reflect.DeepEqual(wire, direct) {
						t.Fatalf("wire charged %+v, direct %+v", wire, direct)
					}
					if single := run(clique.TransportDirect, distance.APSPSeidelSingleBound); !fewerWords(n, direct, single) {
						t.Errorf("depth-bound Seidel charged %d words, single-bound %d", direct.Words, single.Words)
					}
				})
			}
		}
	}
}

// fewerWords reports whether st charged fewer words than single, or at
// n = 16, where the two widths pack alike, no more.
func fewerWords(n int, st, single clique.Stats) bool {
	if n == 16 {
		return st.Words <= single.Words
	}
	return st.Words < single.Words
}
