package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/serve"
)

// The chaos experiment is the fault plane's acceptance campaign: a few
// hundred seeded fault scenarios swept across engines, transports, and
// algebras, plus a faulted wave through the service plane, gated on the
// fault plane's whole contract:
//
//   - typed or correct (hard): every scenario either recovers to a
//     bit-correct, certification-vouched product or fails with a typed
//     fault-plane error (*cc.FaultError, *cc.CertificationError,
//     *serve.SessionPanicError) — never a silently wrong answer;
//   - zero hangs (hard): the whole campaign runs under a watchdog; a
//     scenario that stalls fails the run instead of wedging CI;
//   - zero lost admitted requests (hard): the serve wave's ledger must
//     account for every admitted request through poisoned sessions and
//     shutdown, and no poisoned session may be re-pooled.
//
// The sweep is replayable end to end: every fault draw is keyed by the
// scenario's plan seed, so a failure line names a reproducible run — and
// how many scenarios ended clean, recovered or typed, how many extra
// attempts they took and what the serve wave completed and failed are
// exact, so those counts are the BENCH_chaos.json ledger. How many
// sessions the wave discarded is not: it depends on which requests
// arrived together, so it is printed and bounded, not committed.
// (That a disarmed session charges the clean schedule is the matmul
// ledger's rows, and that an armed plan which never fires leaves it alone is
// clique's TestFaultZeroPlanIsTransparent.)

const (
	chaosWatchdog = 10 * time.Minute
	chaosN        = 12 // session-sweep instance size: small, so 200+ scenarios stay fast
	// chaosCertify = n makes the semiring spot-checks exhaustive (every
	// entry of every row re-derived — a corrupted min-plus or Boolean
	// product cannot slip past a partial sample) and gives ring products a
	// ≤ 2⁻¹² Freivalds false-accept; the draw is seed-derived, so a
	// campaign that passes once passes identically on every replay.
	chaosCertify = chaosN
)

// chaosScenario is one seeded fault configuration on one engine/transport/
// algebra cell of the sweep.
type chaosScenario struct {
	id     string
	engine string
	wire   bool
	op     string // matmul | bool | distance
	plan   cc.FaultPlan
}

// chaosReport tallies the campaign; counters flattens it into ledger rows.
type chaosReport struct {
	Session struct {
		Scenarios, Clean, Recovered, Typed, Retries int
	}
	Serve struct {
		Requests, Poisoned          int
		Completed, Failed, Discards int64
	}
}

// chaosRow is one outcome count of the campaign.
type chaosRow struct {
	Counter string `json:"counter"`
	Count   int64  `json:"count"`
}

func (r chaosRow) key() string { return r.Counter }

func (rep *chaosReport) counters() []chaosRow {
	return []chaosRow{
		{"session_sweep/scenarios", int64(rep.Session.Scenarios)},
		{"session_sweep/clean", int64(rep.Session.Clean)},
		{"session_sweep/recovered", int64(rep.Session.Recovered)},
		{"session_sweep/typed_failures", int64(rep.Session.Typed)},
		{"session_sweep/extra_attempts", int64(rep.Session.Retries)},
		{"serve_wave/requests", int64(rep.Serve.Requests)},
		{"serve_wave/poison_requests", int64(rep.Serve.Poisoned)},
		{"serve_wave/completed", rep.Serve.Completed},
		{"serve_wave/failed_typed", rep.Serve.Failed},
		{"serve_wave/sessions_discarded", rep.Serve.Discards},
	}
}

// chaosMatrix enumerates the session sweep: engines × transports ×
// algebras × fault kinds × seeds. The fast engine has no min-plus cell
// (min-plus is not a ring).
func chaosMatrix() []chaosScenario {
	kinds := []struct {
		name string
		plan func(seed uint64) cc.FaultPlan
	}{
		{"corrupt", func(s uint64) cc.FaultPlan { return cc.FaultPlan{Seed: s, CorruptProb: 0.05, MaxFaults: 4} }},
		{"drop", func(s uint64) cc.FaultPlan { return cc.FaultPlan{Seed: s, DropProb: 0.05, MaxFaults: 4} }},
		{"duplicate", func(s uint64) cc.FaultPlan { return cc.FaultPlan{Seed: s, DupProb: 0.05, MaxFaults: 4} }},
		{"straggle", func(s uint64) cc.FaultPlan { return cc.FaultPlan{Seed: s, StraggleProb: 0.3, StraggleSkew: 2} }},
		{"crash", func(s uint64) cc.FaultPlan { return cc.FaultPlan{Seed: s, CrashAtRound: 1, CrashNode: int(s % chaosN)} }},
		{"storm", func(s uint64) cc.FaultPlan {
			return cc.FaultPlan{Seed: s, CorruptProb: 0.02, DropProb: 0.02, DupProb: 0.02, StraggleProb: 0.1, MaxFaults: 6}
		}},
	}
	cells := []struct {
		engine string
		ops    []string
	}{
		{"naive", []string{"matmul", "bool", "distance"}},
		{"semiring3d", []string{"matmul", "bool", "distance"}},
		{"fast", []string{"matmul", "bool"}},
	}
	var out []chaosScenario
	for _, cell := range cells {
		for _, wire := range []bool{false, true} {
			for _, op := range cell.ops {
				for _, k := range kinds {
					for seed := uint64(1); seed <= 2; seed++ {
						transport := "direct"
						if wire {
							transport = "wire"
						}
						out = append(out, chaosScenario{
							id:     fmt.Sprintf("%s/%s/%s/%s/seed=%d", cell.engine, transport, op, k.name, seed),
							engine: cell.engine,
							wire:   wire,
							op:     op,
							plan:   k.plan(seed*1000 + uint64(len(out))),
						})
					}
				}
			}
		}
	}
	return out
}

func chaosEngineOpt(engine string) cc.SessionOption {
	switch engine {
	case "naive":
		return cc.WithEngine(cc.Naive)
	case "semiring3d":
		return cc.WithEngine(cc.Semiring3D)
	case "fast":
		return cc.WithEngine(cc.Fast)
	}
	check(fmt.Errorf("chaos: unknown engine %q", engine))
	return nil
}

// chaosTyped reports whether an error is one of the fault plane's typed
// surfaces.
func chaosTypedErr(err error) bool {
	var fe *cc.FaultError
	var ce *cc.CertificationError
	return errors.As(err, &fe) || errors.As(err, &ce)
}

// refChaosProduct is the triple-loop reference for the sweep's three
// algebras, computed once per algebra over the shared operands.
func refChaosProduct(op string, a, b [][]int64) [][]int64 {
	n := len(a)
	out := make([][]int64, n)
	for i := range out {
		out[i] = make([]int64, n)
		for j := 0; j < n; j++ {
			switch op {
			case "matmul":
				var s int64
				for k := 0; k < n; k++ {
					s += a[i][k] * b[k][j]
				}
				out[i][j] = s
			case "bool":
				var s int64
				for k := 0; k < n; k++ {
					if a[i][k] != 0 && b[k][j] != 0 {
						s = 1
						break
					}
				}
				out[i][j] = s
			case "distance":
				best := cc.Inf
				for k := 0; k < n; k++ {
					if cc.IsInf(a[i][k]) || cc.IsInf(b[k][j]) {
						continue
					}
					if d := a[i][k] + b[k][j]; d < best {
						best = d
					}
				}
				out[i][j] = best
			}
		}
	}
	return out
}

// chaosSessionSweep runs the engines × transports × algebras × kinds ×
// seeds matrix, reusing one warm session per (engine, transport) so the
// sweep also exercises arm/disarm hygiene across consecutive faulted,
// crashed, and clean operations on the same network.
func chaosSessionSweep(rep *chaosReport) {
	scenarios := chaosMatrix()
	boolify := func(m [][]int64) [][]int64 {
		out := make([][]int64, len(m))
		for i, row := range m {
			out[i] = make([]int64, len(row))
			for j, v := range row {
				out[i][j] = v % 2
			}
		}
		return out
	}
	a, b := randSquare(chaosN, 81), randSquare(chaosN, 82)
	ab, bb := boolify(a), boolify(b)
	want := map[string][][]int64{
		"matmul":   refChaosProduct("matmul", a, b),
		"bool":     refChaosProduct("bool", ab, bb),
		"distance": refChaosProduct("distance", a, b),
	}

	sessions := map[string]*cc.Clique{}
	sessionFor := func(sc chaosScenario) *cc.Clique {
		key := fmt.Sprintf("%s/%v", sc.engine, sc.wire)
		if s, ok := sessions[key]; ok {
			return s
		}
		opts := []cc.SessionOption{chaosEngineOpt(sc.engine)}
		if sc.wire {
			opts = append(opts, cc.WithWireTransport())
		}
		s, err := cc.NewClique(chaosN, opts...)
		check(err)
		sessions[key] = s
		return s
	}
	defer func() {
		for _, s := range sessions {
			s.Close()
		}
	}()

	for _, sc := range scenarios {
		sess := sessionFor(sc)
		opts := []cc.CallOption{cc.WithFaultInjection(sc.plan), cc.WithCertification(chaosCertify)}
		var prod [][]int64
		var stats cc.Stats
		var err error
		switch sc.op {
		case "matmul":
			prod, stats, err = sess.MatMul(a, b, opts...)
		case "bool":
			prod, stats, err = sess.MatMulBool(ab, bb, opts...)
		case "distance":
			prod, stats, err = sess.DistanceProduct(a, b, opts...)
		}
		switch {
		case err != nil:
			if !chaosTypedErr(err) {
				check(fmt.Errorf("chaos: %s: untyped failure: %v", sc.id, err))
			}
			rep.Session.Typed++
		case !slices.EqualFunc(prod, want[sc.op], slices.Equal[[]int64]):
			check(fmt.Errorf("chaos: %s: silently wrong product (faults fired: %d, certified: %v)",
				sc.id, stats.Faults.Fired(), stats.Certified))
		case !stats.Certified:
			check(fmt.Errorf("chaos: %s: success without certification", sc.id))
		case stats.Faults.Corrupted+stats.Faults.Dropped+stats.Faults.Duplicated > 0:
			rep.Session.Recovered++
		default:
			rep.Session.Clean++
		}
		if stats.Attempts > 1 {
			rep.Session.Retries += stats.Attempts - 1
		}
	}
	rep.Session.Scenarios = len(scenarios)
}

// chaosServeWave drives a faulted request mix — clean, chaos-certified,
// and session-poisoning — through the service plane and audits the
// crash-safety ledger.
func chaosServeWave(rep *chaosReport) {
	s := serve.New(serve.Config{MaxBatch: 4})
	const waveN, waveReqs = 10, 48
	a, b := randSquare(waveN, 91), randSquare(waveN, 92)
	want := refChaosProduct("matmul", a, b)

	var wg sync.WaitGroup
	results := make([]serve.Result, waveReqs)
	poisons := 0
	for i := 0; i < waveReqs; i++ {
		req := serve.Request{Tenant: fmt.Sprintf("t%d", i%4), Op: serve.OpMatMul, A: a, B: b}
		switch {
		case i%8 == 5:
			// A buggy run: untyped panic mid-operation, poisoning its session.
			req.Fault = &cc.FaultPlan{Seed: uint64(100 + i), PanicAtFlush: 1}
			poisons++
		case i%3 == 0:
			req.Fault = &cc.FaultPlan{Seed: uint64(200 + i), CorruptProb: 0.02, DropProb: 0.01, MaxFaults: 4}
			req.Certify = chaosCertify
		}
		wg.Add(1)
		go func(i int, req serve.Request) {
			defer wg.Done()
			results[i] = s.Do(context.Background(), req)
		}(i, req)
	}
	wg.Wait()

	for i, res := range results {
		if res.Err != nil {
			var spe *serve.SessionPanicError
			if !chaosTypedErr(res.Err) && !errors.As(res.Err, &spe) {
				check(fmt.Errorf("chaos: serve request %d: untyped failure: %v", i, res.Err))
			}
			rep.Serve.Failed++
			continue
		}
		if !slices.EqualFunc(res.Matrix, want, slices.Equal[[]int64]) {
			check(fmt.Errorf("chaos: serve request %d: silently wrong product", i))
		}
		rep.Serve.Completed++
	}

	var admitted, completed, failed, expired int64
	for _, ts := range s.Tenants() {
		admitted += ts.Admitted
		completed += ts.Completed
		failed += ts.Failed
		expired += ts.Expired
	}
	if admitted != int64(waveReqs) || completed+failed+expired != admitted {
		check(fmt.Errorf("chaos: serve wave lost admitted requests: admitted %d, completed %d, failed %d, expired %d",
			admitted, completed, failed, expired))
	}
	pool := s.Pool()
	// Every request is one session call, so each poison costs exactly its
	// own session, however the requests were drained.
	if pool.Discards != int64(poisons) {
		check(fmt.Errorf("chaos: %d poison requests but %d sessions discarded, want %d",
			poisons, pool.Discards, poisons))
	}
	if int64(pool.Idle+pool.InUse) != pool.Misses-pool.Discards {
		check(fmt.Errorf("chaos: a poisoned session was re-pooled: %+v", pool))
	}
	check(s.Shutdown(context.Background()))
	rep.Serve.Requests = waveReqs
	rep.Serve.Poisoned = poisons
	rep.Serve.Discards = pool.Discards
}

// chaosBench is the `ccbench chaos` experiment entry point.
func chaosBench() {
	// Zero hangs is a gate, not a hope: if any scenario wedges, the
	// watchdog fails the whole campaign loudly instead of letting CI time
	// out 50 minutes later.
	watchdog := time.AfterFunc(chaosWatchdog, func() {
		fmt.Fprintln(os.Stderr, "chaos: campaign watchdog fired — a scenario hung")
		os.Exit(1)
	})
	defer watchdog.Stop()

	rep := &chaosReport{}
	chaosSessionSweep(rep)
	fmt.Printf("   session sweep: %d scenarios — %d clean, %d recovered via certification, %d typed failures, %d extra attempts\n",
		rep.Session.Scenarios, rep.Session.Clean, rep.Session.Recovered, rep.Session.Typed, rep.Session.Retries)
	if rep.Session.Recovered == 0 {
		check(fmt.Errorf("chaos: no scenario recovered through certification; the sweep is not exercising the retry path"))
	}
	chaosServeWave(rep)
	fmt.Printf("   serve wave: %d requests (%d poisoning) — %d completed, %d typed failures, %d sessions discarded\n",
		rep.Serve.Requests, rep.Serve.Poisoned, rep.Serve.Completed, rep.Serve.Failed, rep.Serve.Discards)
	total := rep.Session.Scenarios + rep.Serve.Requests
	fmt.Printf("   campaign: %d seeded scenarios, all typed-or-correct, zero hangs, zero lost requests\n", total)
	gateLedger("chaos",
		"seeded fault campaign: engines × transports × algebras × fault kinds, plus a poisoned serve wave; every "+
			"scenario typed-or-correct with zero hangs, zero lost admitted requests and no re-pooled poisoned "+
			"session, or the run fails before this file is read; how the scenarios ended is exact for the seeds, "+
			"gated for equality",
		rep.counters())
}
