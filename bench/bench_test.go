package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The smoke lane drives every workload and the whole traced run at toy
// size, so a harness bug fails `go test` in seconds instead of a benchmark
// run in minutes. It checks the plumbing, not the numbers.

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func testManifest(t *testing.T) *manifest {
	t.Helper()
	man, _, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	return man
}

func TestManifestIsWellFormed(t *testing.T) {
	man := testManifest(t)
	if n := len(man.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(man.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(man.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", man.RunSeconds)
	}
	seen := make(map[string]bool)
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is not of the form %v", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range man.Workloads {
		name(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	metric := func(m metricSpec) {
		name(m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	setup := false
	for _, m := range man.EndToEnd {
		metric(m)
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside [0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range man.PerLayer {
		metric(m)
		if m.Bound != 0 {
			t.Errorf("per-layer metric %s carries a bound", m.Name)
		}
	}
}

// TestWorkloadsAtToySize runs every workload untraced and requires exactly
// the listed end-to-end metrics, correct answers and no failed op.
func TestWorkloadsAtToySize(t *testing.T) {
	man := testManifest(t)
	for _, w := range man.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			res, err := runUntraced(runConfig{workload: w.Name, seed: 3, seconds: 0.05, scale: toyScale})
			if err != nil {
				t.Fatal(err)
			}
			line, err := res.render(man.EndToEnd, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			var out outputLine
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("correct %v, attempted %d, failed %d", out.Correct, out.Attempted, out.Failed)
			}
			for name, m := range out.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want a positive measurement", name, m.Value)
				}
			}
		})
	}
}

// TestTracedRunAtToySize replays the ladders and requires exactly the
// listed per-layer metrics, a complete ladder for every op of the named
// workload that has a rung below the session, and self times that are not
// negative beyond what timer noise explains.
func TestTracedRunAtToySize(t *testing.T) {
	man := testManifest(t)
	dir := t.TempDir()
	cfg := runConfig{workload: "dense_products", seed: 3, seconds: 1, scale: toyScale}
	res, err := runTraced(cfg, man, dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.render(man.PerLayer, io.Discard); err != nil {
		t.Fatal(err)
	}
	if res.Failed != 0 || !res.Correct {
		t.Errorf("correct %v, failed %d", res.Correct, res.Failed)
	}
	for name, self := range res.values {
		rest, ok := strings.CutPrefix(name, "session.self_ms_p50.")
		if !ok {
			continue
		}
		// Half the rung plus half a millisecond is far beyond any honest
		// self time at toy size and far below a sign error.
		if rung := res.values["session.ms_p50."+rest]; self < -(rung/2 + 0.5) {
			t.Errorf("%s = %v ms on a rung of %v ms", name, self, rung)
		}
	}

	raw, err := os.ReadFile(filepath.Join(dir, "trace-dense_products.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []span }
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	layers := make(map[int]map[string]bool) // operation id → layers seen
	byID := make(map[int]span)
	for _, s := range file.Spans {
		byID[s.Span] = s
		if layers[s.ID] == nil {
			layers[s.ID] = make(map[string]bool)
		}
		layers[s.ID][s.Layer] = true
		if s.EndNs < s.StartNs {
			t.Errorf("span %d ends before it starts", s.Span)
		}
		if s.Parent != 0 && byID[s.Parent].ID != s.ID {
			t.Errorf("span %d and its parent %d belong to different operations", s.Span, s.Parent)
		}
	}
	if len(layers) == 0 {
		t.Fatal("no spans recorded")
	}
	for id, seen := range layers {
		if !seen["session"] || !seen["ccmm"] {
			t.Errorf("operation %d has rungs %v, want session and ccmm", id, seen)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	man := &manifest{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd: []metricSpec{
			{Name: "steady", Better: "lower", Bound: 0.10},
			{Name: "slower", Better: "lower", Bound: 0.10},
			{Name: "noisy", Better: "higher", Bound: 0.10},
			{Name: "exact", Better: "lower", Bound: 0},
		},
	}
	dir := t.TempDir()
	write := func(file string, runs []map[string]float64) string {
		path := filepath.Join(dir, file)
		for _, r := range runs {
			line := outputLine{Correct: true, Attempted: 1, Metrics: make(map[string]metricValue)}
			for k, v := range r {
				line.Metrics[k] = metricValue{Value: v}
			}
			raw, err := json.Marshal(line)
			if err != nil {
				t.Fatal(err)
			}
			if err := appendRecord(path, runConfig{workload: "w"}, 0, raw); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	a := write("a.jsonl", []map[string]float64{
		{"steady": 100, "slower": 100, "noisy": 100, "exact": 7},
		{"steady": 101, "slower": 101, "noisy": 140, "exact": 7},
		{"steady": 102, "slower": 102, "noisy": 60, "exact": 7},
	})
	b := write("b.jsonl", []map[string]float64{
		{"steady": 103, "slower": 120, "noisy": 100, "exact": 7},
		{"steady": 104, "slower": 121, "noisy": 130, "exact": 7},
		{"steady": 105, "slower": 122, "noisy": 70, "exact": 7},
	})
	var out, errs bytes.Buffer
	if status := compareFiles(man, a, b, &out, &errs); status != 1 {
		t.Errorf("status %d, want 1 because one metric is worse\n%s%s", status, &out, &errs)
	}
	for metric, verdict := range map[string]string{"steady": "ok", "slower": "worse", "noisy": "unresolved", "exact": "ok"} {
		found := false
		for _, row := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(row); len(f) > 2 && f[1] == metric {
				found = true
				if f[len(f)-1] != verdict {
					t.Errorf("%s: verdict %q, want %q", metric, f[len(f)-1], verdict)
				}
			}
		}
		if !found {
			t.Errorf("no row for %s in\n%s", metric, &out)
		}
	}
	if status := compareFiles(man, a, a, io.Discard, io.Discard); status != 0 {
		t.Errorf("a file compared with itself gives status %d", status)
	}
}
