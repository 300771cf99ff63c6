// Command bench is the repository's yardstick: five workloads, nine
// end-to-end metrics measured with tracing off, and a ladder-replay layer
// trace (--trace 1) that attributes the time to the packages below the
// public API. BENCHMARK.json at the repository root is the single list of
// workload and metric names, units and regression bounds; this program
// measures exactly what it lists. See README.md for the definitions.
//
//	bash bench/run.sh --workload dense_products --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh                       # every workload, one process each
//	bash bench/run.sh -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all, one child process each)")
	seed := fs.Uint64("seed", 1, "input seed; the program under test only sees the generated inputs")
	seconds := fs.Float64("seconds", 0, "measured window in seconds (default: run_seconds of BENCHMARK.json)")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: ladder replay, per-layer metrics")
	out := fs.String("out", "", "append the run's result as one JSON line to this file (input of -compare)")
	compare := fs.Bool("compare", false, "compare two -out files: bench -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	man, root, err := loadManifest()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare wants two result files")
			return 2
		}
		return compareFiles(man, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *seconds <= 0 {
		*seconds = float64(man.RunSeconds)
	}
	if *workload == "" {
		return runAll(man, args, stdout, stderr)
	}
	if !man.hasWorkload(*workload) {
		fmt.Fprintf(stderr, "bench: unknown workload %q (BENCHMARK.json lists %v)\n", *workload, man.workloadNames())
		return 2
	}
	// The paper's model gives every node its own processor; the host has
	// two, and every committed sizing figure was taken at two.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, scale: fullScale}
	var res *result
	if *trace != 0 {
		res, err = runTraced(cfg, man, filepath.Join(root, "bench", "out"))
	} else {
		res, err = runUntraced(cfg)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	specs := man.EndToEnd
	if *trace != 0 {
		specs = man.PerLayer
	}
	line, err := res.render(specs, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *out != "" {
		if err := appendRecord(*out, cfg, *trace, line); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct || res.Failed > 0 {
		return 1
	}
	return 0
}

// runAll re-executes this binary once per workload, so every workload
// starts from a fresh heap and reports its own peak RSS.
func runAll(man *manifest, args []string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	status := 0
	for _, w := range man.Workloads {
		fmt.Fprintf(stdout, "== %s: %s\n", w.Name, w.Why)
		cmd := exec.Command(self, append([]string{"--workload", w.Name}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w.Name, err)
			status = 1
		}
	}
	return status
}

// manifest is the part of BENCHMARK.json the program reads.
type manifest struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func (m *manifest) hasWorkload(name string) bool {
	for _, w := range m.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

func (m *manifest) workloadNames() []string {
	names := make([]string, len(m.Workloads))
	for i, w := range m.Workloads {
		names[i] = w.Name
	}
	return names
}

// loadManifest finds BENCHMARK.json in the working directory or one of its
// parents (the driver runs from the repository root, go test from bench/).
func loadManifest() (*manifest, string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, "", err
	}
	for {
		raw, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var m manifest
			if err := json.Unmarshal(raw, &m); err != nil {
				return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return &m, dir, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, "", err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, "", errors.New("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// runConfig is one invocation's parameters.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	scale    scale
}

// result is what one run measured: the operation counts and one value per
// metric name.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	values    map[string]float64
	notes     []string // human-readable context printed above the metrics
}

func newResult() *result { return &result{Correct: true, values: make(map[string]float64)} }

func (r *result) set(name string, v float64) { r.values[name] = v }

func (r *result) notef(format string, a ...any) { r.notes = append(r.notes, fmt.Sprintf(format, a...)) }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outputLine is the last line of standard output, the form the driver reads.
type outputLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// render prints every metric by name with its unit and returns the JSON
// result line. The measured names must be exactly the listed ones: a
// metric BENCHMARK.json does not name, or one it names that was not
// measured, is a harness bug and fails the run.
func (r *result) render(specs []metricSpec, w io.Writer) ([]byte, error) {
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	line := outputLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]metricValue, len(specs))}
	for _, s := range specs {
		v, ok := r.values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s is listed in BENCHMARK.json but was not measured", s.Name)
		}
		fmt.Fprintf(w, "%-52s %16.6g %s\n", s.Name, v, s.Unit)
		line.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if len(r.values) != len(specs) {
		var extra []string
		for name := range r.values {
			if _, ok := line.Metrics[name]; !ok {
				extra = append(extra, name)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics %v are not listed in BENCHMARK.json", extra)
	}
	fmt.Fprintf(w, "ops attempted %d, succeeded %d, failed %d\n", r.Attempted, r.Attempted-r.Failed, r.Failed)
	return json.Marshal(line)
}

// record is one line of an -out file: the driver's result line plus what
// -compare needs to group runs.
type record struct {
	Workload string          `json:"workload"`
	Seed     uint64          `json:"seed"`
	Trace    int             `json:"trace"`
	Result   json.RawMessage `json:"result"`
}

func appendRecord(path string, cfg runConfig, trace int, line []byte) error {
	raw, err := json.Marshal(record{Workload: cfg.workload, Seed: cfg.seed, Trace: trace, Result: line})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(raw, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
