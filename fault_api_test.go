package algclique

import (
	"errors"
	"reflect"
	"testing"

	"github.com/algebraic-clique/algclique/internal/clique"
)

// mustMatMulClean computes the fault-free reference product on a fresh
// session.
func mustMatMulClean(t *testing.T, a, b Mat) Mat {
	t.Helper()
	s, err := NewClique(len(a))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want, _, err := s.MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestFaultInjectionCertifiedRecovery is the headline contract: under a
// seeded corruption storm with certification armed, MatMul either returns
// the bit-correct product (certified, possibly after retries) or a typed
// error — across many seeds, never a silently wrong answer.
func TestFaultInjectionCertifiedRecovery(t *testing.T) {
	n := 10
	a, b := randMatT(1, n), randMatT(2, n)
	want := mustMatMulClean(t, a, b)
	s, err := NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	recovered, failed := 0, 0
	for seed := uint64(1); seed <= 20; seed++ {
		got, st, err := s.MatMul(a, b,
			WithFaultInjection(FaultPlan{Seed: seed, CorruptProb: 0.01, DropProb: 0.005, MaxFaults: 8}),
			WithCertification(10))
		if err != nil {
			failed++
			var fe *FaultError
			var ce *CertificationError
			if !errors.As(err, &fe) && !errors.As(err, &ce) {
				t.Fatalf("seed %d: untyped failure %v (%T)", seed, err, err)
			}
			continue
		}
		if !st.Certified {
			t.Fatalf("seed %d: success without certification", seed)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: certified product is wrong", seed)
		}
		if st.Faults.Fired() > 0 && st.Attempts > 1 {
			recovered++
		}
	}
	if recovered == 0 {
		t.Error("no seed exercised a certified retry; lower MaxFaults or adjust probabilities")
	}
	t.Logf("recovered=%d failed-typed=%d", recovered, failed)
}

// TestFaultsWithoutCertificationTaintResult pins the taint rule: a product
// that completes while data faults fired, with no certification to vouch
// for it, returns *FaultError rather than a possibly-wrong matrix.
func TestFaultsWithoutCertificationTaintResult(t *testing.T) {
	n := 9
	a, b := randMatT(3, n), randMatT(4, n)
	s, err := NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	_, st, err := s.MatMul(a, b,
		WithFaultInjection(FaultPlan{Seed: 7, CorruptProb: 1, MaxFaults: 1}))
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v (%T), want *FaultError", err, err)
	}
	if fe.Kind != FaultDisrupt && fe.Kind != FaultCorrupt {
		t.Errorf("unexpected kind %v", fe.Kind)
	}
	if st.Faults.Corrupted == 0 {
		t.Errorf("ledger recorded no corruption: %+v", st.Faults)
	}
	if st.Attempts != 1 {
		t.Errorf("uncertified fault should not retry, got %d attempts", st.Attempts)
	}
}

// TestDuplicatesSkipPayloadDeliveries: a duplicated delivery repeats only
// a link's word vector. Engine products move their messages as payloads,
// whose readers index the entries they expect, so a repeat could never
// reach them; the plan must fire no duplicate and leave an uncertified
// product exact and error-free on both transports.
func TestDuplicatesSkipPayloadDeliveries(t *testing.T) {
	for _, n := range []int{16, 27} {
		a, b := randMatT(16, n), randMatT(17, n)
		want := mustMatMulClean(t, a, b)
		for _, tr := range []struct {
			name string
			opts []SessionOption
		}{{"direct", nil}, {"wire", []SessionOption{WithWireTransport()}}} {
			s, err := NewClique(n, tr.opts...)
			if err != nil {
				t.Fatal(err)
			}
			got, st, err := s.MatMul(a, b, WithFaultInjection(FaultPlan{Seed: 7, DupProb: 1}))
			s.Close()
			if err != nil {
				t.Fatalf("n=%d %s: %v", n, tr.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d %s: product differs from the clean one", n, tr.name)
			}
			if st.Faults.Duplicated != 0 {
				t.Fatalf("n=%d %s: %d duplicates fired on payload deliveries", n, tr.name, st.Faults.Duplicated)
			}
		}
	}
}

// TestStraggleOnlyFaultsDoNotTaint: straggles stretch rounds but cannot
// corrupt data, so the result stays trustworthy without certification.
func TestStraggleOnlyFaultsDoNotTaint(t *testing.T) {
	n := 9
	a, b := randMatT(5, n), randMatT(6, n)
	want := mustMatMulClean(t, a, b)
	s, err := NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	_, clean, err := s.MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := s.MatMul(a, b,
		WithFaultInjection(FaultPlan{Seed: 11, StraggleProb: 1, StraggleSkew: 2}))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("straggled product differs from clean product")
	}
	if st.Faults.Straggles == 0 || st.Faults.SkewRounds == 0 {
		t.Fatalf("no straggles ledgered: %+v", st.Faults)
	}
	if st.Rounds != clean.Rounds+st.Faults.SkewRounds {
		t.Errorf("rounds %d != clean %d + skew %d", st.Rounds, clean.Rounds, st.Faults.SkewRounds)
	}
}

// TestCrashSurfacesTypedAndIsNotRetried: a fail-stopped node is permanent
// on the network, so even a generous retry budget must not spin on it.
func TestCrashSurfacesTypedAndIsNotRetried(t *testing.T) {
	n := 9
	a, b := randMatT(8, n), randMatT(9, n)
	s, err := NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	_, st, err := s.MatMul(a, b,
		WithFaultInjection(FaultPlan{Seed: 1, CrashAtRound: 1, CrashNode: 2}),
		WithCertification(4), WithCertificationRetries(5))
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v (%T), want *FaultError", err, err)
	}
	if fe.Kind != FaultCrash || fe.Node != 2 {
		t.Errorf("got kind=%v node=%d, want crash of node 2", fe.Kind, fe.Node)
	}
	if st.Attempts != 1 {
		t.Errorf("crash retried: %d attempts", st.Attempts)
	}
	if st.Faults.Crashes != 1 {
		t.Errorf("ledger: %+v", st.Faults)
	}

	// The session itself stays healthy: the injector is disarmed after the
	// operation, so the next call runs clean.
	if _, _, err := s.MatMul(a, b); err != nil {
		t.Fatalf("session poisoned after crash op: %v", err)
	}
}

// TestFaultInjectionRejectedOnBroadcast: the fault plane hooks the unicast
// simulator's flush path; broadcast-model operations must refuse a plan
// rather than silently ignore it.
func TestFaultInjectionRejectedOnBroadcast(t *testing.T) {
	n := 9
	a, b := randMatT(14, n), randMatT(15, n)
	s, err := NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, _, err = s.MatMulBroadcast(a, b,
		WithFaultInjection(FaultPlan{Seed: 1, DropProb: 0.5}))
	if err == nil {
		t.Fatal("broadcast op accepted a fault plan")
	}
}

// TestCertificationOnCleanRun: certification on an un-faulted session
// accepts the product, marks it certified, and charges its probes to the
// operation's ledger.
func TestCertificationOnCleanRun(t *testing.T) {
	n := 10
	a, b := randMatT(16, n), randMatT(17, n)
	want := mustMatMulClean(t, a, b)
	s, err := NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	_, plain, err := s.MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, st, err := s.MatMul(a, b, WithCertification(6))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("certified product differs")
	}
	if !st.Certified || st.Attempts != 1 {
		t.Errorf("certified=%v attempts=%d, want true/1", st.Certified, st.Attempts)
	}
	if st.Rounds <= plain.Rounds {
		t.Errorf("certification charged no rounds: %d vs %d", st.Rounds, plain.Rounds)
	}
}

// TestCertifiedDistanceAndBoolProducts covers the semiring (spot-check)
// certification paths end to end.
func TestCertifiedDistanceAndBoolProducts(t *testing.T) {
	n := 9
	a, b := randMatT(18, n), randMatT(19, n)
	bool01 := func(m Mat) Mat {
		out := make(Mat, len(m))
		for i, row := range m {
			out[i] = make([]int64, len(row))
			for j, v := range row {
				if v > 0 {
					out[i][j] = 1
				}
			}
		}
		return out
	}
	ba, bb := bool01(a), bool01(b)

	s, err := NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, st, err := s.DistanceProduct(a, b, WithCertification(n)); err != nil || !st.Certified {
		t.Fatalf("distance product: err=%v certified=%v", err, st.Certified)
	}
	if _, st, err := s.MatMulBool(ba, bb, WithCertification(n)); err != nil || !st.Certified {
		t.Fatalf("bool product: err=%v certified=%v", err, st.Certified)
	}
}

// TestBatchPerItemFaultPlans arms a fault plan on one call of a run of
// calls on one session: the plan fires on that call alone, the clean calls
// around it compute the right product and ledger no faults, and with
// certification the faulted call recovers by retrying.
func TestBatchPerItemFaultPlans(t *testing.T) {
	n := 9
	a, b := randMatT(20, n), randMatT(21, n)
	want := mustMatMulClean(t, a, b)
	s, err := NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	plan := WithFaultInjection(FaultPlan{Seed: 2, CorruptProb: 1, MaxFaults: 1})
	clean := func(label string) {
		t.Helper()
		got, st, err := s.MatMul(a, b)
		if err != nil {
			t.Fatalf("%s clean call: %v", label, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s clean call computed a wrong product", label)
		}
		if st.Faults.Fired() != 0 {
			t.Errorf("%s clean call ledgered faults: %+v", label, st.Faults)
		}
	}
	clean("first")
	_, _, err = s.MatMul(a, b, plan)
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("err = %v (%T), want *FaultError from the faulted call", err, err)
	}
	clean("second")

	// Recovery is per call too: with certification the faulted call
	// retries on the shared session.
	got, st, err := s.MatMul(a, b, plan, WithCertification(8), WithCertificationRetries(6))
	if err == nil {
		if !reflect.DeepEqual(got, want) {
			t.Fatal("certified faulted call is wrong")
		}
		if !st.Certified {
			t.Error("faulted call not marked certified")
		}
	} else if !errors.As(err, &fe) {
		var ce *CertificationError
		if !errors.As(err, &ce) {
			t.Fatalf("certified retry failed untyped: %v", err)
		}
	}
	clean("third")
}

// TestFaultPlanDeterministicAcrossSessions: the same plan on the same
// operation fires the same faults — the replayability contract chaos
// campaigns depend on.
func TestFaultPlanDeterministicAcrossSessions(t *testing.T) {
	n := 10
	a, b := randMatT(22, n), randMatT(23, n)
	run := func() (Stats, error) {
		s, err := NewClique(n)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		_, st, err := s.MatMul(a, b,
			WithFaultInjection(FaultPlan{Seed: 99, CorruptProb: 0.02, DropProb: 0.01, MaxFaults: 4}),
			WithCertification(8))
		return st, err
	}
	st1, err1 := run()
	st2, err2 := run()
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("outcomes differ: %v vs %v", err1, err2)
	}
	if st1.Faults != st2.Faults || st1.Attempts != st2.Attempts || st1.Rounds != st2.Rounds {
		t.Fatalf("replay diverged: %+v/%d/%d vs %+v/%d/%d",
			st1.Faults, st1.Attempts, st1.Rounds, st2.Faults, st2.Attempts, st2.Rounds)
	}
}

// TestRoundLimitStillTypedThroughFaultPath: the retry harness must not
// swallow or retry a round-budget abort.
func TestRoundLimitStillTypedThroughFaultPath(t *testing.T) {
	n := 27
	a, b := randMatT(24, n), randMatT(25, n)
	s, err := NewClique(n, WithEngine(Semiring3D))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	_, st, err := s.MatMul(a, b, WithRoundLimit(3),
		WithFaultInjection(FaultPlan{Seed: 1, CorruptProb: 0.01}),
		WithCertification(4))
	var lim *clique.RoundLimitError
	if !errors.As(err, &lim) {
		t.Fatalf("err = %v (%T), want *RoundLimitError", err, err)
	}
	if st.Attempts != 1 {
		t.Errorf("round-limit abort retried: %d attempts", st.Attempts)
	}
}

// TestCertifiesOrRefuses pins, for every session operation, what it does
// under WithCertification: "certifies" returns a result with
// Stats.Certified set, "refuses" returns an error wrapping
// ErrNotCertifiable before it runs. Every method that takes call options
// must have a row, so a new operation has to choose; giving an operation a
// certificate flips its row.
func TestCertifiesOrRefuses(t *testing.T) {
	const n = 16
	a, b := randMatT(1, n), randMatT(2, n)
	bits := make(Mat, n)
	for i := range bits {
		bits[i] = make([]int64, n)
		for j := range bits[i] {
			bits[i][j] = a[i][j] & 1
		}
	}
	csr, err := CSRFromMat(bits, 0)
	if err != nil {
		t.Fatal(err)
	}
	g := GNP(n, 0.2, false, 3)
	w := RandomConnectedWeighted(n, 0.3, 9, true, 4)

	one := func(st Stats, err error) (bool, error) { return st.Certified, err }
	ops := map[string]struct {
		certifies bool
		run       func(s *Clique, opts ...CallOption) (certified bool, err error)
	}{
		"MatMul": {true, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.MatMul(a, b, o...)
			return one(st, err)
		}},
		"MatMulBool": {true, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.MatMulBool(bits, bits, o...)
			return one(st, err)
		}},
		"DistanceProduct": {true, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.DistanceProduct(a, b, o...)
			return one(st, err)
		}},
		"MatMulCSR": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.MatMulCSR(csr, csr, o...)
			return one(st, err)
		}},
		"MatMulBoolCSR": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.MatMulBoolCSR(csr, csr, o...)
			return one(st, err)
		}},
		"DistanceProductCSR": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.DistanceProductCSR(csr, csr, o...)
			return one(st, err)
		}},
		"SquareAdjacencyCSR": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.SquareAdjacencyCSR(csr, o...)
			return one(st, err)
		}},
		"APSPCSR": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.APSPCSR(csr, o...)
			return one(st, err)
		}},
		"TransitiveClosureCSR": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.TransitiveClosureCSR(csr, o...)
			return one(st, err)
		}},
		"APSP": {false, func(s *Clique, o ...CallOption) (bool, error) { _, st, err := s.APSP(w, o...); return one(st, err) }},
		"APSPUnweighted": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.APSPUnweighted(g, o...)
			return one(st, err)
		}},
		"APSPUnweightedWithRouting": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.APSPUnweightedWithRouting(g, o...)
			return one(st, err)
		}},
		"APSPSmallWeights": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.APSPSmallWeights(w, o...)
			return one(st, err)
		}},
		"APSPApprox": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, _, st, err := s.APSPApprox(w, o...)
			return one(st, err)
		}},
		"APSPNaive": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.APSPNaive(w, o...)
			return one(st, err)
		}},
		"CountTriangles": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.CountTriangles(g, o...)
			return one(st, err)
		}},
		"CountFourCycles": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.CountFourCycles(g, o...)
			return one(st, err)
		}},
		"CountFiveCycles": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.CountFiveCycles(g, o...)
			return one(st, err)
		}},
		"CountSixCycles": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.CountSixCycles(g, o...)
			return one(st, err)
		}},
		"DetectFourCycle": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.DetectFourCycle(g, o...)
			return one(st, err)
		}},
		"DetectCycle": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.DetectCycle(g, 5, o...)
			return one(st, err)
		}},
		"Girth": {false, func(s *Clique, o ...CallOption) (bool, error) { _, _, st, err := s.Girth(g, o...); return one(st, err) }},
		"SquareAdjacencySparse": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.SquareAdjacencySparse(g, o...)
			return one(st, err)
		}},
		"CountTrianglesDolev": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.CountTrianglesDolev(g, o...)
			return one(st, err)
		}},
		"TransitiveClosure": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.TransitiveClosure(g, o...)
			return one(st, err)
		}},
		"Diameter": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, _, st, err := s.Diameter(g, o...)
			return one(st, err)
		}},
		"MatMulBroadcast": {false, func(s *Clique, o ...CallOption) (bool, error) {
			_, st, err := s.MatMulBroadcast(a, b, o...)
			return one(st, err)
		}},
	}

	callOpts := reflect.TypeOf([]CallOption(nil))
	ty := reflect.TypeOf((*Clique)(nil))
	for i := 0; i < ty.NumMethod(); i++ {
		m := ty.Method(i).Type
		if m.IsVariadic() && m.In(m.NumIn()-1) == callOpts {
			if _, ok := ops[ty.Method(i).Name]; !ok {
				t.Errorf("%s takes call options but has no certifies-or-refuses row", ty.Method(i).Name)
			}
		}
	}

	s, err := NewClique(n)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for name, op := range ops {
		certified, err := op.run(s, WithCertification(n))
		switch {
		case op.certifies && (err != nil || !certified):
			t.Errorf("%s: certified = %v, err = %v; want a certified result", name, certified, err)
		case !op.certifies && !errors.Is(err, ErrNotCertifiable):
			t.Errorf("%s: err = %v; want an error wrapping ErrNotCertifiable", name, err)
		}
	}
	// A refusal runs nothing: only the certifying rows reached the ledger.
	for _, rec := range s.Stats().Ops {
		if !certifies(rec.Op) {
			t.Errorf("refused operation %s reached the ledger", rec.Op)
		}
	}
}

// TestFaultDamageIsTypedOnEveryOp: an operation without product attempts
// of its own — a graph algorithm, a CSR product — has no per-attempt
// recovery, so a data fault that garbles what an engine reads (a dropped
// block row arriving as nothing, a corrupted witness indexing outside the
// routing table) used to escape it as a raw panic. Under drop-only and
// corrupt-only plans, on both transports, every such operation must
// return its fault-free answer or a typed *FaultError, and never panic.
func TestFaultDamageIsTypedOnEveryOp(t *testing.T) {
	const n = 64
	wg := RandomConnectedWeighted(n, 0.1, 20, false, 3)
	g := GNP(n, 0.1, false, 4)
	dense, err := CSRFromMat(randMatT(5, n), 0)
	if err != nil {
		t.Fatal(err)
	}
	csr := func(s *Clique, opts ...CallOption) (any, error) {
		p, _, err := s.MatMulCSR(dense, dense, opts...)
		return p, err
	}
	ops := []struct {
		name   string
		engine Engine
		run    func(s *Clique, opts ...CallOption) (any, error)
	}{
		{"APSP", Auto, func(s *Clique, opts ...CallOption) (any, error) {
			r, _, err := s.APSP(wg, opts...)
			return r, err
		}},
		{"APSPUnweighted", Auto, func(s *Clique, opts ...CallOption) (any, error) {
			r, _, err := s.APSPUnweighted(g, opts...)
			return r, err
		}},
		{"TransitiveClosure", Auto, func(s *Clique, opts ...CallOption) (any, error) {
			r, _, err := s.TransitiveClosure(g, opts...)
			return r, err
		}},
		{"CountTriangles", Auto, func(s *Clique, opts ...CallOption) (any, error) {
			r, _, err := s.CountTriangles(g, opts...)
			return r, err
		}},
		{"Girth", Auto, func(s *Clique, opts ...CallOption) (any, error) {
			r, ok, _, err := s.Girth(g, opts...)
			return [2]any{r, ok}, err
		}},
		{"MatMulCSR/fast", Fast, csr},
		{"MatMulCSR/3d", Semiring3D, csr},
	}
	plans := []struct {
		name string
		plan FaultPlan
	}{{"drop", FaultPlan{DropProb: 0.01}}, {"corrupt", FaultPlan{CorruptProb: 0.01}}}
	for _, tr := range []struct {
		name string
		opts []SessionOption
	}{{"direct", nil}, {"wire", []SessionOption{WithWireTransport()}}} {
		for _, o := range ops {
			s, err := NewClique(n, append(tr.opts, WithEngine(o.engine))...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			want, err := o.run(s)
			if err != nil {
				t.Fatalf("%s %s: fault-free run: %v", tr.name, o.name, err)
			}
			for _, pl := range plans {
				typed := 0
				for seed := uint64(1); seed <= 3; seed++ {
					plan := pl.plan
					plan.Seed = seed
					got, err, raw := func() (got any, err error, raw any) {
						defer func() { raw = recover() }()
						got, err = o.run(s, WithFaultInjection(plan))
						return got, err, nil
					}()
					var fe *FaultError
					switch {
					case raw != nil:
						t.Errorf("%s %s %s seed %d: raw panic %v", tr.name, o.name, pl.name, seed, raw)
					case err == nil && !reflect.DeepEqual(got, want):
						t.Errorf("%s %s %s seed %d: wrong answer without an error", tr.name, o.name, pl.name, seed)
					case err != nil && !errors.As(err, &fe):
						t.Errorf("%s %s %s seed %d: untyped failure %v (%T)", tr.name, o.name, pl.name, seed, err, err)
					case err != nil:
						typed++
					}
				}
				t.Logf("%s %s %s: %d of 3 seeds typed", tr.name, o.name, pl.name, typed)
			}
		}
	}
}
