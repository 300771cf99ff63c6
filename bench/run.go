package main

import (
	"fmt"
	"math"
	"path/filepath"
)

// workload is what both kinds of workload — the closed-loop session
// scripts and the open-loop service mix — offer the two kinds of run.
type workload interface {
	// measure is the untraced run: the end-to-end metrics.
	measure(cfg runConfig) (*result, error)
	// trace spends about the given seconds replaying the workload's ladder
	// and adds every layer metric it can derive to out; with baseline set
	// it also measures and returns the overhead of recording spans.
	trace(seconds float64, baseline bool, rec *recorder, out map[string]float64, res *result) (overheadPct float64, err error)
	// inputTimes is the time spent generating inputs and computing
	// references, in seconds; neither is part of any other metric.
	inputTimes() (genS, refS float64)
}

// newWorkload generates the named workload's inputs from the seed and
// computes its reference answers.
func newWorkload(name string, seed uint64, sc scale) (workload, error) {
	if name == "serve_mixed" {
		return newServeMixed(seed)
	}
	return newLibrary(name, seed, sc)
}

// runUntraced measures the end-to-end metrics of one workload.
func runUntraced(cfg runConfig) (*result, error) {
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.scale)
	if err != nil {
		return nil, err
	}
	return w.measure(cfg)
}

// Shares of a traced run's seconds: the named workload's ladder, each other
// workload's ladder, and (the remainder) the leaf-layer rates.
const (
	ownShare   = 0.30
	otherShare = 0.07
)

// runTraced measures the per-layer metrics. Most of them are keyed by an
// operation, and an operation belongs to one workload, but the result must
// carry every listed metric whichever workload was named: so every traced
// run replays all five ladders — the named workload's for the larger share
// of the time, with its spans written to outDir — and then times the leaf
// layers. Only the metrics BENCHMARK.json lists are kept; the ladders
// derive the same quantities for every op, and the list picks.
func runTraced(cfg runConfig, man *manifest, outDir string) (*result, error) {
	res := newResult()
	all := make(map[string]float64)
	rec := newRecorder()
	for _, spec := range man.Workloads {
		own := spec.Name == cfg.workload
		w, err := newWorkload(spec.Name, cfg.seed, cfg.scale)
		if err != nil {
			return nil, err
		}
		share, r := otherShare, (*recorder)(nil)
		if own {
			share, r = ownShare, rec
			all["bench.gen_s"], all["bench.reference_s"] = w.inputTimes()
		}
		overhead, err := w.trace(cfg.seconds*share, own, r, all, res)
		if err != nil {
			res.Correct = false
			res.Failed++
			res.notef("FAILED: %v", err)
			continue
		}
		if own {
			all["bench.trace_overhead_pct"] = overhead
		}
	}
	all["bench.verify_failures"] = float64(res.Failed)
	if res.Failed > 0 {
		return res, fmt.Errorf("%d ladder(s) failed verification", res.Failed)
	}

	// The dense integer product runs two exchanges (scatter the operand
	// blocks, gather the partial products); its words per link per exchange
	// is the message length the leaf layers are timed at.
	n := float64(cfg.scale.dense)
	perLink := int(math.Ceil(all["session.words.matmul_256"] / (n * (n - 1)) / 2))
	if err := micro(cfg.scale, perLink, all); err != nil {
		return nil, err
	}
	if d, m := all["ccmm.ms_p50.matmul_256"], all["ccmm.ms_p50.distance_256"]; d > 0 && m > 0 {
		all["ccmm.wire_over_direct.matmul_256"] = all["ccmm.ms_p50.matmul_wire_256"] / d
		all["ccmm.wire_over_direct.distance_256"] = all["ccmm.ms_p50.distance_wire_256"] / m
	}
	for _, spec := range man.PerLayer {
		if v, ok := all[spec.Name]; ok {
			res.set(spec.Name, v)
		}
	}
	path := filepath.Join(outDir, "trace-"+cfg.workload+".json")
	if err := rec.write(path, cfg); err != nil {
		return nil, err
	}
	res.notef("%s seed %d: ladder replay, %d spans of %d sampled ops written to %s; per-link message length %d words",
		cfg.workload, cfg.seed, len(rec.spans), rec.ops, path, perLink)
	return res, nil
}
