package main

import (
	"math"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs, which
// it sorts in place; 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	return xs[max(i, 0)]
}

// median is the mean of the two middle values for an even-sized sample, so
// a sample of two is not read as its minimum.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	h := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[h]
	}
	return (xs[h-1] + xs[h]) / 2
}

// settle collects the heap and returns freed pages to the system, so that
// what follows neither pays for nor hides behind the garbage of what came
// before.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// usage is a snapshot of the process counters the end-to-end metrics are
// deltas of.
type usage struct {
	at      time.Time
	cpu     time.Duration // user + system
	mallocs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	// Getrusage on RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return usage{
		at:      time.Now(),
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: mem.Mallocs,
	}
}

// peakRSSMB is the process's resident-set high-water mark (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024
}

// window is the measured interval of an untraced run: what happened between
// two usage snapshots, and how many operations it covered.
type window struct {
	from, to  usage
	attempted int
	failed    int
	rounds    int64 // Σ Stats.Rounds of the successful operations
	words     int64
	latencies []float64 // ms; one per pass (library) or per request (serve)
}

// endToEnd fills in the nine end-to-end metrics, which have the same names
// and definitions on every workload.
func (w *window) endToEnd(res *result, setupS float64) {
	ok := float64(w.attempted - w.failed)
	wall := w.to.at.Sub(w.from.at)
	res.Attempted, res.Failed = w.attempted, w.failed
	res.set("setup_s", setupS)
	res.set("throughput_ops_s", ok/wall.Seconds())
	res.set("latency_ms_p50", percentile(w.latencies, 0.50))
	res.set("latency_ms_p90", percentile(w.latencies, 0.90))
	res.set("cpu_ms_per_op", ms(w.to.cpu-w.from.cpu)/ok)
	res.set("allocs_per_op", float64(w.to.mallocs-w.from.mallocs)/ok)
	res.set("peak_rss_mb", peakRSSMB())
	res.set("sim_rounds_per_op", float64(w.rounds)/ok)
	res.set("sim_words_per_op", float64(w.words)/ok)
}
