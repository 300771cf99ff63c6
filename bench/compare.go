package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// runs holds the untraced results of one -out file: workload → metric →
// one value per run.
type runs struct {
	values map[string]map[string][]float64
	failed int // runs that reported a wrong answer or a failed op
}

func readRuns(path string) (*runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runs{values: make(map[string]map[string][]float64)}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		var out outputLine
		if err := json.Unmarshal(sc.Bytes(), &rec); err == nil {
			err = json.Unmarshal(rec.Result, &out)
		}
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue // per-layer metrics carry no bound
		}
		if !out.Correct || out.Failed > 0 {
			rs.failed++
		}
		byMetric := rs.values[rec.Workload]
		if byMetric == nil {
			byMetric = make(map[string][]float64)
			rs.values[rec.Workload] = byMetric
		}
		for name, m := range out.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
	}
	return rs, sc.Err()
}

// quartiles returns the first, second and third quartile of xs by the
// method of Python's statistics.quantiles(xs, n=4), which the driver uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	n := len(xs)
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - 4*j)
		return (xs[j-1]*(4-delta) + xs[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / q2
}

// compareFiles applies BENCHMARK.json's per-metric bounds to two sets of
// untraced runs and prints one row per workload and end-to-end metric: ok,
// worse (b's median is worse than a's by more than the bound), or
// unresolved (the runs of one side spread wider than the bound, and b is
// not better than a on every run). The status is 1 if any row is worse or
// any run failed an operation.
func compareFiles(man *manifest, pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readRuns(pathA)
	if err == nil && len(a.values) == 0 {
		err = fmt.Errorf("%s holds no untraced runs", pathA)
	}
	var b *runs
	if err == nil {
		b, err = readRuns(pathB)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	status := 0
	fmt.Fprintf(stdout, "%-15s %-18s %5s %14s %14s %8s %8s %7s  %s\n",
		"workload", "metric", "runs", "median a", "median b", "worse by", "spread", "bound", "verdict")
	for _, w := range man.Workloads {
		for _, m := range man.EndToEnd {
			xa, xb := a.values[w.Name][m.Name], b.values[w.Name][m.Name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			_, ma, _ := quartiles(xa)
			_, mb, _ := quartiles(xb)
			// sign turns "b is worse" into a positive change.
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			change := 0.0
			if ma != 0 {
				change = sign * (mb - ma) / ma
			}
			wide := max(spread(xa), spread(xb))
			verdict := "ok"
			switch {
			case change > m.Bound:
				verdict = "worse"
				status = 1
			case wide > m.Bound && !allBetter(sign, xa, xb):
				verdict = "unresolved"
			}
			fmt.Fprintf(stdout, "%-15s %-18s %2d/%-2d %14.6g %14.6g %+7.2f%% %7.2f%% %6.1f%%  %s\n",
				w.Name, m.Name, len(xa), len(xb), ma, mb, 100*change, 100*wide, 100*m.Bound, verdict)
		}
	}
	if n := a.failed + b.failed; n > 0 {
		fmt.Fprintf(stdout, "%d run(s) reported failed operations or wrong answers\n", n)
		status = 1
	}
	return status
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(sign float64, xa, xb []float64) bool {
	for _, y := range xb {
		for _, x := range xa {
			if sign*(y-x) >= 0 {
				return false
			}
		}
	}
	return true
}
