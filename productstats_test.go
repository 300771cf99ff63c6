package algclique_test

import (
	"reflect"
	"testing"

	cc "github.com/algebraic-clique/algclique"
)

// TestSeidelProductStats reads the product ledger of Seidel's algorithm at
// n = 144: its Boolean squarings ride the packed 3D engine with predicted
// rounds within [½, 2] of the charged ones, its integer products the
// bilinear engine, and the rows add up to no more than the operation's
// own cost. The caller's copy and the session ledger's never alias, and
// the next operation starts a ledger of its own.
func TestSeidelProductStats(t *testing.T) {
	const n = 144
	g := cc.GNP(n, 0.1, false, 17)
	s := openSession(t, n)
	_, st, err := s.APSPUnweighted(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Products) == 0 {
		t.Fatal("Seidel reported no products")
	}
	var rounds, words int64
	seen := map[string]bool{}
	for _, p := range st.Products {
		t.Logf("%-14s %-15q ×%-3d predicted %6.0f rounds %9.0f words, charged %4d / %8d",
			p.Engine, p.Decision, p.Count, p.PredictedRounds, p.PredictedWords, p.Rounds, p.Words)
		if p.Count < 1 || p.Rounds < 1 {
			t.Errorf("empty row %+v", p)
		}
		seen[p.Engine] = true
		rounds += p.Rounds
		words += p.Words
		if p.Engine == "semiring-3d" {
			if r := p.PredictedRounds / float64(p.Rounds); r < 0.5 || r > 2 {
				t.Errorf("semiring-3d/%s: predicted %.0f rounds, charged %d: outside [½, 2]", p.Decision, p.PredictedRounds, p.Rounds)
			}
		}
	}
	if !seen["semiring-3d"] || !seen["fast-bilinear"] {
		t.Errorf("engines %v; want the Boolean squarings on semiring-3d and the integer products on fast-bilinear", seen)
	}
	if rounds > st.Rounds || words > st.Words {
		t.Errorf("products charged %d rounds / %d words, more than the operation's %d / %d", rounds, words, st.Rounds, st.Words)
	}

	want := append([]cc.ProductStat(nil), st.Products...)
	st.Products[0].Count = -1
	_ = append(st.Products, cc.ProductStat{Engine: "caller"})
	ops := s.Stats().Ops
	if got := ops[len(ops)-1].Products; !reflect.DeepEqual(got, want) {
		t.Errorf("session ledger products = %+v, want %+v", got, want)
	}

	m := make(cc.Mat, n)
	for i := range m {
		m[i] = make([]int64, n)
		m[i][(i+1)%n] = 1
	}
	_, st, err = s.MatMulBool(m, m)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Products) != 1 || st.Products[0].Count != 1 || st.Products[0].Decision != st.Routing {
		t.Errorf("MatMulBool products = %+v, routing %q; want one product under that decision", st.Products, st.Routing)
	}
}
