package ccmm_test

import (
	"errors"
	"math/rand/v2"
	"testing"

	"github.com/algebraic-clique/algclique/internal/ccmm"
	"github.com/algebraic-clique/algclique/internal/clique"
	"github.com/algebraic-clique/algclique/internal/matrix"
	"github.com/algebraic-clique/algclique/internal/ring"
)

// refMul is the triple-loop reference product over a semiring.
func refMul[T any](sr ring.Semiring[T], a, b *ccmm.RowMat[T]) *ccmm.RowMat[T] {
	n := a.N()
	c := ccmm.NewRowMat[T](n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			acc := sr.Zero()
			for k := 0; k < n; k++ {
				acc = sr.Add(acc, sr.Mul(a.Rows[i][k], b.Rows[k][j]))
			}
			c.Rows[i][j] = acc
		}
	}
	return c
}

func randRowMat(rng *rand.Rand, n int, lim int64) *ccmm.RowMat[int64] {
	m := matrix.New[int64](n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, rng.Int64N(2*lim)-lim)
		}
	}
	return ccmm.Distribute(m)
}

func TestCertifyIntProductAcceptsAndRejects(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 7))
	n := 12
	a, b := randRowMat(rng, n, 50), randRowMat(rng, n, 50)
	c := refMul[int64](ring.Int64{}, a, b)
	net := clique.New(n)

	ok, err := ccmm.CertifyIntProduct(net, a, b, c, 8, 0x5eed)
	if err != nil || !ok {
		t.Fatalf("correct product rejected: ok=%v err=%v", ok, err)
	}
	before := net.Stats()
	if before.Rounds == 0 || before.Words == 0 {
		t.Fatalf("certification charged nothing: %+v", before)
	}

	c.Rows[5][9]++ // single-entry corruption
	rejected := false
	for probe := 0; probe < 8 && !rejected; probe++ {
		ok, err = ccmm.CertifyIntProduct(net, a, b, c, 1, uint64(0x5eed+probe))
		if err != nil {
			t.Fatal(err)
		}
		rejected = !ok
	}
	if !rejected {
		t.Fatal("corrupted product passed 8 independent Freivalds probes")
	}
}

func TestCertifyFreivaldsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 8))
	n := 9
	a, b := randRowMat(rng, n, 20), randRowMat(rng, n, 20)
	c := refMul[int64](ring.Int64{}, a, b)
	c.Rows[0][0] += 3

	run := func() (bool, clique.Stats) {
		net := clique.New(n)
		ok, err := ccmm.CertifyIntProduct(net, a, b, c, 4, 99)
		if err != nil {
			t.Fatal(err)
		}
		return ok, net.Stats()
	}
	ok1, st1 := run()
	ok2, st2 := run()
	if ok1 != ok2 || st1.Rounds != st2.Rounds || st1.Words != st2.Words {
		t.Fatalf("certification not deterministic: (%v %+v) vs (%v %+v)", ok1, st1, ok2, st2)
	}
}

func TestCertifyMinPlusSpotCheck(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 9))
	n := 10
	mp := ring.MinPlus{}
	mk := func() *ccmm.RowMat[int64] {
		m := ccmm.NewRowMat[int64](n)
		for i := range m.Rows {
			for j := range m.Rows[i] {
				if rng.IntN(3) == 0 {
					m.Rows[i][j] = ring.Inf
				} else {
					m.Rows[i][j] = rng.Int64N(100)
				}
			}
		}
		return m
	}
	a, b := mk(), mk()
	c := refMul[int64](mp, a, b)
	net := clique.New(n)

	ok, err := ccmm.CertifyMinPlusProduct(net, a, b, c, 3, 0xabc)
	if err != nil || !ok {
		t.Fatalf("correct distance product rejected: ok=%v err=%v", ok, err)
	}

	// samples = n is a complete audit: any single wrong entry is caught.
	c.Rows[4][7]--
	ok, err = ccmm.CertifyMinPlusProduct(net, a, b, c, n, 0xabc)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("full spot-check audit missed a corrupted entry")
	}
}

func TestCertifyBoolSpotCheck(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 10))
	n := 11
	mk := func() *ccmm.RowMat[int64] {
		m := ccmm.NewRowMat[int64](n)
		for i := range m.Rows {
			for j := range m.Rows[i] {
				m.Rows[i][j] = int64(rng.IntN(2))
			}
		}
		return m
	}
	a, b := mk(), mk()
	// Boolean reference via the 0/1 semiring view used by the certifier.
	c := ccmm.NewRowMat[int64](n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if a.Rows[i][k] != 0 && b.Rows[k][j] != 0 {
					c.Rows[i][j] = 1
					break
				}
			}
		}
	}
	net := clique.New(n)
	ok, err := ccmm.CertifyBoolProduct(net, a, b, c, n, 0xb001)
	if err != nil || !ok {
		t.Fatalf("correct Boolean product rejected: ok=%v err=%v", ok, err)
	}
	c.Rows[2][3] = 1 - c.Rows[2][3]
	ok, err = ccmm.CertifyBoolProduct(net, a, b, c, n, 0xb001)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("full Boolean audit missed a flipped entry")
	}
}

// TestCertifySpotCheckFailsOnDroppedProbeTraffic pins the fail-closed
// contract: faults hitting the certification exchange itself must fail the
// check, never vouch for the product.
func TestCertifySpotCheckFailsOnDroppedProbeTraffic(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 11))
	n := 8
	mp := ring.MinPlus{}
	a, b := randRowMat(rng, n, 40), randRowMat(rng, n, 40)
	c := refMul[int64](mp, a, b)
	net := clique.New(n)
	net.SetFaultInjector(clique.NewFaultInjector(clique.FaultPlan{Seed: 3, DropProb: 1}))
	defer net.SetFaultInjector(nil)

	ok, err := ccmm.CertifyMinPlusProduct(net, a, b, c, 2, 0xdead)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("spot-check passed although every probe delivery was dropped")
	}
}

// TestCertifyRoundLimitSurfacesTyped pins the abort conversion inside the
// certifiers.
func TestCertifyRoundLimitSurfacesTyped(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 12))
	n := 8
	a, b := randRowMat(rng, n, 40), randRowMat(rng, n, 40)
	c := refMul[int64](ring.Int64{}, a, b)
	net := clique.New(n, clique.WithRoundLimit(1))

	_, err := ccmm.CertifyIntProduct(net, a, b, c, 4, 1)
	var lim *clique.RoundLimitError
	if !errors.As(err, &lim) {
		t.Fatalf("err = %v, want *RoundLimitError", err)
	}
}

// TestPayloadCorruptersCoverEngineTypes exercises each registered
// corrupter against its payload type and checks exactly one element
// changed — and, for the 0/1 entries Boolean products carry in int64 rows
// and tuple values, that the change always flips the entry's truth value.
func TestPayloadCorruptersCoverEngineTypes(t *testing.T) {
	applyH := func(p clique.Payload, h uint64) bool {
		for _, co := range ccmm.PayloadCorrupters {
			if co(p, h) {
				return true
			}
		}
		return false
	}
	apply := func(p clique.Payload) bool { return applyH(p, 0x0123456789abcdef) }

	ints := []int64{1, 2, 3, 4}
	orig := append([]int64(nil), ints...)
	if !apply(&ints) {
		t.Fatal("no corrupter for *[]int64")
	}
	diff := 0
	for i := range ints {
		if ints[i] != orig[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("int64 corrupter changed %d elements, want 1", diff)
	}

	br := ring.Bool{}
	rng := rand.New(rand.NewPCG(17, 18))
	for draw := 0; draw < 1000; draw++ {
		h := rng.Uint64()
		row := []int64{1, 0, 1, 1, 0}
		orig := append([]int64(nil), row...)
		if !applyH(&row, h) {
			t.Fatal("no corrupter for a Boolean *[]int64 row")
		}
		for i := range row {
			if br.Equal(row[i], orig[i]) != (row[i] == orig[i]) {
				t.Fatalf("h=%#x: entry %d went %d → %d without changing truth", h, i, orig[i], row[i])
			}
		}
		tups := []ring.Tuple[int64]{{Idx: 3, Val: 1}, {Idx: 4, Val: 0}}
		origT := append([]ring.Tuple[int64](nil), tups...)
		if !applyH(&tups, h) {
			t.Fatal("no corrupter for a Boolean *[]Tuple[int64]")
		}
		for i := range tups {
			if br.Equal(tups[i].Val, origT[i].Val) != (tups[i].Val == origT[i].Val) {
				t.Fatalf("h=%#x: tuple %d value went %d → %d without changing truth", h, i, origT[i].Val, tups[i].Val)
			}
		}
	}
	words := []clique.Word{7, 8}
	if !apply(&words) {
		t.Fatal("no corrupter for *[]Word")
	}
	valws := []ring.ValW{{V: 5, W: 1}}
	if !apply(&valws) {
		t.Fatal("no corrupter for *[]ValW")
	}
	if valws[0].V == 5 {
		t.Fatal("ValW corrupter left the value intact")
	}
	tupsI := []ring.Tuple[int64]{{Idx: 2, Val: 9}}
	if !apply(&tupsI) {
		t.Fatal("no corrupter for *[]Tuple[int64]")
	}
	if tupsI[0].Idx != 2 {
		t.Fatal("tuple corrupter touched the index half")
	}

	if apply(&struct{}{}) {
		t.Fatal("corrupters claimed an unknown payload type")
	}
	var empty []int64
	if apply(&empty) {
		t.Fatal("corrupters claimed an empty slice")
	}
}
