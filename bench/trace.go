package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	cc "github.com/algebraic-clique/algclique"
)

// The program has no spans of its own yet, so the trace is a ladder replay:
// a sampled operation is executed at successive entry depths with the same
// operands — HTTP handler, Server.Do, warm session method, the function in
// ccmm / distance / subgraph / girth the session calls — and each rung is
// one span. A layer's self time is its rung minus the rung below.

// span is one rung of one sampled operation.
type span struct {
	ID      int    `json:"id"`     // the sampled operation; every rung of its ladder shares it
	Span    int    `json:"span"`   // this span, unique within the file
	Parent  int    `json:"parent"` // the span one rung up; 0 at the top of the ladder
	Op      string `json:"op"`     // the op key, e.g. matmul_256
	Layer   string `json:"layer"`  // the package the rung enters
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the recorder was created
	EndNs   int64  `json:"end_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder times
// without recording, which is how the overhead of recording is measured.
type recorder struct {
	epoch time.Time
	spans []span
	ops   int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// newOp returns the identifier the rungs of one sampled operation share.
func (r *recorder) newOp() int {
	if r == nil {
		return 0
	}
	r.ops++
	return r.ops
}

// timed runs f as one span and returns the span's identifier and duration.
func (r *recorder) timed(id, parent int, op, layer, name string, f func() error) (int, time.Duration, error) {
	t0 := time.Now()
	err := f()
	t1 := time.Now()
	if r == nil {
		return 0, t1.Sub(t0), err
	}
	return r.add(id, parent, op, layer, name, t0, t1), t1.Sub(t0), err
}

// add records a span measured elsewhere (a request timed from its due
// time, a queue wait the server reported).
func (r *recorder) add(id, parent int, op, layer, name string, from, to time.Time) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{ID: id, Span: len(r.spans) + 1, Parent: parent, Op: op, Layer: layer,
		Name: name, StartNs: from.Sub(r.epoch).Nanoseconds(), EndNs: to.Sub(r.epoch).Nanoseconds()})
	return len(r.spans)
}

// write stores the spans as one JSON document.
func (r *recorder) write(path string, cfg runConfig) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{cfg.workload, cfg.seed, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// samples collects timing samples by metric name; a metric's value is the
// median of its samples.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// medians folds every sample list into layer metrics.
func (s samples) medians(into map[string]float64) {
	for name, xs := range s {
		into[name] = median(xs)
	}
}

// ladder replays the script for about the given time (two passes at
// least). With full set, every op also runs its rung below the session and
// the spans go to rec; without it only the session rung runs, which is the
// untraced baseline the tracing overhead is measured against. It returns
// the last pass's Stats.
func (w *library) ladder(h *warm, rg *rigs, seconds float64, full bool, rec *recorder, sm samples, res *result) ([]cc.Stats, error) {
	stats := make([]cc.Stats, len(w.ops))
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for pass := 0; pass < 2 || time.Now().Before(deadline); pass++ {
		for i := range w.ops {
			op := &w.ops[i]
			id := rec.newOp()
			res.Attempted++
			top, d, err := rec.timed(id, 0, op.key, "session", op.key, func() (err error) {
				stats[i], err = op.call(h.sessions[op.sess])
				return err
			})
			if err == nil {
				err = op.verify(false)
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %s: %w", w.name, op.key, err)
			}
			sm.add("session.ms_p50."+op.key, ms(d))
			if !full || op.below == nil {
				continue
			}
			var below time.Duration
			x := &belowCtx{rigs: rg, n: stats[i].N, rounds: stats[i].Rounds,
				span: func(layer, subject string, f func() error) error {
					_, bd, err := rec.timed(id, top, op.key, layer, subject, f)
					below += bd
					sm.add(layer+".ms_p50."+subject, ms(bd))
					return err
				}}
			if err := op.below(x); err != nil {
				return nil, fmt.Errorf("%s: below %s: %w", w.name, op.key, err)
			}
			sm.add("session.self_ms_p50."+op.key, ms(d-below))
		}
		for _, s := range h.sessions {
			s.ResetStats()
		}
	}
	return stats, nil
}

// trace runs the workload's ladder for the given time slice and adds every
// layer metric it can derive to out. With baseline set, a quarter of the
// slice first runs the session rung alone, and the result is the tracing
// overhead in percent of the summed session medians.
func (w *library) trace(seconds float64, baseline bool, rec *recorder, out map[string]float64, res *result) (overheadPct float64, err error) {
	h, err := w.setUp()
	if err != nil {
		return 0, err
	}
	defer h.close()
	rg := &rigs{wire: w.wire}
	defer rg.close()
	// The rigs pay their own cold start (network construction, scratch
	// growth) once, untimed, as the sessions did in setUp.
	for i := range w.ops {
		op := &w.ops[i]
		if op.below == nil {
			continue
		}
		x := &belowCtx{rigs: rg, n: h.stats[i].N, rounds: h.stats[i].Rounds,
			span: func(_, _ string, f func() error) error { return f() }}
		if err := op.below(x); err != nil {
			return 0, fmt.Errorf("%s: cold rung below %s: %w", w.name, op.key, err)
		}
	}

	plain := samples{}
	if baseline {
		if _, err := w.ladder(h, rg, seconds/4, false, nil, plain, res); err != nil {
			return 0, err
		}
		seconds -= seconds / 4
	}
	sm := samples{}
	stats, err := w.ladder(h, rg, seconds, true, rec, sm, res)
	if err != nil {
		return 0, err
	}
	if err := w.sameCharges(h.stats, stats); err != nil {
		return 0, err
	}
	sm.medians(out)

	sparse := 0
	for i, op := range w.ops {
		st := stats[i]
		out["session.cold_ms."+op.key] = h.coldMs[i]
		out["session.rounds."+op.key] = float64(st.Rounds)
		out["session.words."+op.key] = float64(st.Words)
		var census int64
		for _, ph := range st.Phases {
			if strings.HasSuffix(ph.Name, "/census") {
				census += ph.Words
			}
		}
		out["ccmm.census_words_share."+op.key] = float64(census) / float64(max(st.Words, 1))
		// skew compares the charged rounds with what the same words would
		// cost spread evenly over all n(n-1) links.
		links := float64(st.N) * float64(st.N-1)
		out["ccmm.skew."+op.key] = float64(st.Rounds) / math.Max(1, math.Ceil(float64(st.Words)/links))
		if st.Routing == "sparse" {
			sparse++
		}
	}
	out["ccmm.route_sparse_share."+w.name] = float64(sparse) / float64(len(w.ops))

	if baseline {
		var with, without float64
		for _, op := range w.ops {
			with += median(sm["session.ms_p50."+op.key])
			without += median(plain["session.ms_p50."+op.key])
		}
		overheadPct = 100 * (with - without) / without
	}
	return overheadPct, nil
}
