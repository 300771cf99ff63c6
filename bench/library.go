package main

import (
	"fmt"
	"time"

	cc "github.com/algebraic-clique/algclique"
	"github.com/algebraic-clique/algclique/internal/graphs"
	"github.com/algebraic-clique/algclique/internal/subgraph"
)

// library is a closed-loop workload on the session API: one caller runs a
// fixed script of public calls, pass after pass, on warm sessions. Counts
// (ops, rounds, words) are per whole pass, so they repeat exactly.
type library struct {
	name string
	// sessions builds the workload's sessions, in the order libOp.sess
	// indexes them.
	sessions []func() (*cc.Clique, error)
	ops      []libOp
	// wire marks wire_products; directN is the size of the direct session
	// its charges are compared against.
	wire    bool
	directN int
	// genS and refS are the time spent generating inputs and computing
	// references; neither is part of setup_s.
	genS, refS float64
}

// newLibrary generates the named workload's inputs from the seed and
// computes every reference answer.
func newLibrary(name string, seed uint64, sc scale) (*library, error) {
	w := &library{name: name}
	t0 := time.Now()
	var build func() error // computes references and scripts the ops
	switch name {
	case "dense_products", "wire_products":
		n := sc.dense
		rng := newRNG(seed, 1)
		a, b := randMat(rng, n, -100, 100), randMat(rng, n, -100, 100)
		da, db := randMat(rng, n, 1, 1000), randMat(rng, n, 1, 1000)
		ba, bb := randMat(rng, n, 0, 2), randMat(rng, n, 0, 2)
		w.wire, w.directN = name == "wire_products", n
		w.sessions = []func() (*cc.Clique, error){func() (*cc.Clique, error) {
			if w.wire {
				return cc.NewClique(n, cc.WithWireTransport())
			}
			return cc.NewClique(n)
		}}
		build = func() error {
			if w.wire {
				w.ops = []libOp{
					productOp("matmul_wire_256", mulInt, a, b, 0),
					productOp("distance_wire_256", mulMinPlus, da, db, 0),
					productOp("matmulbool_wire_256", mulBool, ba, bb, 0),
				}
				return nil
			}
			w.ops = []libOp{
				productOp("matmul_256", mulInt, a, b, 0),
				productOp("distance_256", mulMinPlus, da, db, 0),
				productOp("matmulbool_256", mulBool, ba, bb, 0),
				productOp("matmul_cert_256", mulInt, a, b, 8),
			}
			return nil
		}
	case "graph_pipeline":
		n := sc.graph
		// Average degree ≈ 14 at n = 144: dense enough that every seed has
		// triangles and 4-cycles (so girth and detection exit on the same
		// branch and the round counts do not jump between seeds), sparse
		// enough that the reductions' inner products are not trivial.
		p := min(0.5, 14/float64(n))
		wg := cc.RandomConnectedWeighted(n, p, 100, true, seed)
		g := cc.GNP(n, p, false, seed+1)
		gd := cc.GNP(n, p/3, true, seed+2)
		w.sessions = []func() (*cc.Clique, error){func() (*cc.Clique, error) { return cc.NewClique(n) }}
		build = func() error {
			apsp, err := apspOp("apsp_144", wg)
			if err != nil {
				return err
			}
			w.ops = []libOp{
				apsp,
				apspUnweightedOp("apsp_unweighted_144", "seidel_144", g),
				closureOp("closure_144", gd),
				countOp("triangles_144", g, graphs.CountTrianglesRef(g), (*cc.Clique).CountTriangles, subgraph.CountTriangles),
				countOp("c4count_144", g, graphs.CountC4Ref(g), (*cc.Clique).CountFourCycles, subgraph.CountC4),
				countOp("c5count_144", g, graphs.CountC5Ref(g), (*cc.Clique).CountFiveCycles, subgraph.CountC5),
				c4detectOp("c4detect_144", g),
				girthOp("girth_144", g),
				girthOp("girth_directed_144", gd),
			}
			return nil
		}
	case "sparse_csr":
		rng := newRNG(seed, 2)
		// Every op gets its own draw: the rounds of a sparse product follow
		// the heaviest link, an extreme value of the structure, and ops that
		// shared one operand would all swing with it from seed to seed.
		s2, s8 := gnpCSR(rng, sc.csrSmall, 2), gnpCSR(rng, sc.csrSmall, 8)
		l2 := gnpCSR(rng, sc.csrLarge, 2)
		b2, d2 := gnpCSR(rng, sc.csrSmall, 2), gnpCSR(rng, sc.csrSmall, 2)
		w.sessions = []func() (*cc.Clique, error){
			func() (*cc.Clique, error) { return cc.NewClique(sc.csrSmall) },
			func() (*cc.Clique, error) { return cc.NewClique(sc.csrLarge) },
		}
		build = func() error {
			w.ops = []libOp{
				csrOp("square_csr_2000_d2", mulInt, 0, s2),
				csrOp("square_csr_2000_d8", mulInt, 0, s8),
				csrOp("square_csr_10000_d2", mulInt, 1, l2),
				csrOp("matmulbool_csr_2000_d2", mulBool, 0, b2),
				csrOp("distance_csr_2000_d2", mulMinPlus, 0, d2),
			}
			return nil
		}
	default:
		return nil, fmt.Errorf("%q is not a library workload", name)
	}
	t1 := time.Now()
	if err := build(); err != nil {
		return nil, fmt.Errorf("%s: references: %w", name, err)
	}
	w.genS, w.refS = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
	return w, nil
}

func (w *library) inputTimes() (genS, refS float64) { return w.genS, w.refS }

// warm is a set-up workload: its sessions and what the cold calls showed.
type warm struct {
	sessions []*cc.Clique
	setup    time.Duration // constructors plus cold calls, checks excluded
	coldMs   []float64     // per op: the cold call
	stats    []cc.Stats    // per op: what the cold call charged
}

func (h *warm) close() {
	for _, s := range h.sessions {
		s.Close()
	}
}

// setUp builds the sessions and makes one fully verified cold call of
// every scripted op. Only the constructors and the calls are timed.
func (w *library) setUp() (*warm, error) {
	h := &warm{coldMs: make([]float64, len(w.ops)), stats: make([]cc.Stats, len(w.ops))}
	for _, mk := range w.sessions {
		t := time.Now()
		s, err := mk()
		h.setup += time.Since(t)
		if err != nil {
			h.close()
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		h.sessions = append(h.sessions, s)
	}
	for i := range w.ops {
		op := &w.ops[i]
		t := time.Now()
		st, err := op.call(h.sessions[op.sess])
		d := time.Since(t)
		if err == nil {
			err = op.verify(true)
		}
		if err != nil {
			h.close()
			return nil, fmt.Errorf("%s: cold %s: %w", w.name, op.key, err)
		}
		h.setup += d
		h.coldMs[i], h.stats[i] = ms(d), st
	}
	return h, nil
}

// sameCharges reports the first op whose rounds or words differ between two
// executions of the script — the determinism self-check.
func (w *library) sameCharges(a, b []cc.Stats) error {
	for i := range w.ops {
		if a[i].Rounds != b[i].Rounds || a[i].Words != b[i].Words {
			return fmt.Errorf("%s: %s charged %d rounds / %d words, then %d / %d: the ledger is not deterministic",
				w.name, w.ops[i].key, a[i].Rounds, a[i].Words, b[i].Rounds, b[i].Words)
		}
	}
	return nil
}

// pass runs the script once on warm sessions. Each op's timer covers the
// public call only; the checksum runs between timers. It returns the op
// times in ms, or the first failure.
func (w *library) pass(h *warm, stats []cc.Stats, opMs []float64, full bool) error {
	for i := range w.ops {
		op := &w.ops[i]
		t := time.Now()
		st, err := op.call(h.sessions[op.sess])
		opMs[i] = ms(time.Since(t))
		if err == nil {
			err = op.verify(full)
		}
		if err != nil {
			return fmt.Errorf("%s: %s: %w", w.name, op.key, err)
		}
		stats[i] = st
	}
	// The session ledger keeps every operation's Stats; a long-lived
	// caller that does not read it resets it, and so does the loop.
	for _, s := range h.sessions {
		s.ResetStats()
	}
	return nil
}

// measure is the untraced run: repeated set-ups (setup_s is their median),
// the determinism check, then whole passes for the measured window.
func (w *library) measure(cfg runConfig) (*result, error) {
	res := newResult()
	var h *warm
	var setups []float64
	var spent time.Duration
	for k := 0; k < cfg.scale.setupReps && (k < 3 || spent < 3*time.Second); k++ {
		var before []cc.Stats
		if h != nil {
			before = h.stats
			h.close()
			h = nil
		}
		// Every set-up starts from a collected heap, as a fresh process
		// would: the sessions of the one before are garbage by now, and
		// marking them concurrently would be charged to this one.
		settle()
		var err error
		if h, err = w.setUp(); err != nil {
			return nil, err
		}
		if before != nil {
			if err := w.sameCharges(before, h.stats); err != nil {
				h.close()
				return nil, err
			}
		}
		setups = append(setups, h.setup.Seconds())
		spent += h.setup
	}
	defer h.close()
	if w.wire {
		if err := w.matchesDirect(h.stats); err != nil {
			return nil, err
		}
	}

	stats := make([]cc.Stats, len(w.ops))
	opMs := make([]float64, len(w.ops))
	// The window opens on a collected heap whose pages are mapped again:
	// settle hands them back to the system, and two unmeasured passes take
	// them back, so the first measured pass does not pay the page faults.
	settle()
	for i := 0; i < 2; i++ {
		if err := w.pass(h, stats, opMs, false); err != nil {
			return nil, err
		}
	}
	if err := w.sameCharges(h.stats, stats); err != nil {
		return nil, err
	}
	win := window{from: readUsage()}
	deadline := win.from.at.Add(time.Duration(cfg.seconds * float64(time.Second)))
	for pass := 0; pass < 2 || time.Now().Before(deadline); pass++ {
		win.attempted += len(w.ops)
		if err := w.pass(h, stats, opMs, false); err != nil {
			// A wrong answer or an error fails its whole pass: report it
			// and stop, the run is void either way.
			res.Correct = false
			res.notef("FAILED: %v", err)
			win.failed += len(w.ops)
			break
		}
		var sum float64
		for i, d := range opMs {
			sum += d
			win.rounds += stats[i].Rounds
			win.words += stats[i].Words
		}
		win.latencies = append(win.latencies, sum)
	}
	win.to = readUsage()
	if win.attempted == win.failed {
		return res, fmt.Errorf("%s: no pass succeeded", w.name)
	}
	// One more pass outside the window, compared entry by entry.
	if err := w.pass(h, stats, opMs, true); err != nil {
		res.Correct = false
		res.notef("FAILED after the window: %v", err)
	}
	win.endToEnd(res, median(setups))
	res.notef("%s seed %d: %d passes of %d ops in %.2f s; %d set-ups; inputs %.3f s, references %.3f s",
		w.name, cfg.seed, len(win.latencies), len(w.ops), win.to.at.Sub(win.from.at).Seconds(), len(setups), w.genS, w.refS)
	return res, nil
}

// matchesDirect checks the bit-identical-ledger claim: the wire session
// must charge, op for op, exactly what a direct session charges for the
// same operands.
func (w *library) matchesDirect(wire []cc.Stats) error {
	direct, err := cc.NewClique(w.directN)
	if err != nil {
		return err
	}
	defer direct.Close()
	for i := range w.ops {
		st, err := w.ops[i].call(direct)
		if err == nil {
			err = w.ops[i].verify(true)
		}
		if err != nil {
			return fmt.Errorf("%s: direct %s: %w", w.name, w.ops[i].key, err)
		}
		if st.Rounds != wire[i].Rounds || st.Words != wire[i].Words {
			return fmt.Errorf("%s: %s charged %d rounds / %d words on the wire and %d / %d direct",
				w.name, w.ops[i].key, wire[i].Rounds, wire[i].Words, st.Rounds, st.Words)
		}
	}
	return nil
}
