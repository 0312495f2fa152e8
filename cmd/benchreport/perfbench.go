package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// perfSpec is one perfbench A/B: a workload at a seed, run Pairs times per
// side, traced or not.
type perfSpec struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Pairs    int    `json:"pairs"`
	Trace    bool   `json:"trace,omitempty"`
}

// parsePerfSpecs reads -perfbench's comma-separated workload:seed:pairs
// entries, each optionally followed by :trace.
func parsePerfSpecs(s string) ([]perfSpec, error) {
	if s == "" {
		return nil, nil
	}
	var specs []perfSpec
	for _, entry := range strings.Split(s, ",") {
		f := strings.Split(entry, ":")
		var sp perfSpec
		if len(f) == 4 && f[3] == "trace" {
			sp.Trace, f = true, f[:3]
		}
		if len(f) != 3 || f[0] == "" {
			return nil, fmt.Errorf("-perfbench entry %q is not workload:seed:pairs[:trace]", entry)
		}
		seed, err := strconv.ParseUint(f[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("-perfbench entry %q: seed: %w", entry, err)
		}
		pairs, err := strconv.Atoi(f[2])
		if err != nil || pairs < 1 {
			return nil, fmt.Errorf("-perfbench entry %q: pairs must be a positive integer", entry)
		}
		sp.Workload, sp.Seed, sp.Pairs = f[0], seed, pairs
		specs = append(specs, sp)
	}
	return specs, nil
}

// perfRun is one perfbench invocation's result: its last output line, plus
// the sample count behind each metric from the ledger lines before it.
type perfRun struct {
	Correct bool
	Failed  int
	Values  map[string]float64
	Samples map[string]int
}

// parsePerfOutput reads perfbench's standard output: `#   name value unit
// n=N` ledger lines, then the JSON result line.
func parsePerfOutput(out []byte) (perfRun, error) {
	r := perfRun{Values: map[string]float64{}, Samples: map[string]int{}}
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		last = line
		if f := strings.Fields(line); len(f) == 5 && f[0] == "#" && strings.HasPrefix(f[4], "n=") {
			if n, err := strconv.Atoi(f[4][2:]); err == nil {
				r.Samples[f[1]] = n
			}
		}
	}
	var res struct {
		Correct bool `json:"correct"`
		Failed  int  `json:"failed"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return perfRun{}, fmt.Errorf("last line %q: %w", last, err)
	}
	r.Correct, r.Failed = res.Correct, res.Failed
	for name, m := range res.Metrics {
		r.Values[name] = m.Value
	}
	return r, nil
}

// runPerfbench runs the benchmark once through root's own perfbench/run.sh,
// from root, as the benchmark is run on a checkout.
func runPerfbench(ctx context.Context, root string, sp perfSpec, seconds float64) (perfRun, error) {
	trace := "0"
	if sp.Trace {
		trace = "1"
	}
	cmd := exec.CommandContext(ctx, "bash", "perfbench/run.sh", "--workload", sp.Workload,
		"--seed", strconv.FormatUint(sp.Seed, 10), "--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return perfRun{}, fmt.Errorf("perfbench in %s: %w: %s", root, err, lastLine(stderr.Bytes()))
	}
	return parsePerfOutput(out)
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// metricDef is a metric's declared direction and bound (BENCHMARK.json).
type metricDef struct {
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// readBenchmark reads the working tree's BENCHMARK.json: the length of a
// run and every metric's declaration.
func readBenchmark(path string) (seconds float64, defs map[string]metricDef, err error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, nil, err
	}
	var doc struct {
		RunSeconds float64 `json:"run_seconds"`
		EndToEnd   []struct {
			Name string `json:"name"`
			metricDef
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
			metricDef
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		return 0, nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.RunSeconds <= 0 {
		return 0, nil, fmt.Errorf("%s: run_seconds %v is not positive", path, doc.RunSeconds)
	}
	defs = map[string]metricDef{}
	for _, m := range append(doc.EndToEnd, doc.PerLayer...) {
		defs[m.Name] = m.metricDef
	}
	return doc.RunSeconds, defs, nil
}

// PerfSide is one build's runs of a metric: every value in run order, the
// median and the quartiles bounding the middle half of the runs, and the
// sample count behind each run's value (cold requests for serve's rates).
type PerfSide struct {
	Runs    []float64 `json:"runs"`
	Samples []int     `json:"samples,omitempty"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
}

// PerfMetric compares one metric between the working tree and the revision.
type PerfMetric struct {
	Better string    `json:"better,omitempty"`
	Bound  float64   `json:"bound,omitempty"`
	Tree   PerfSide  `json:"tree"`
	Rev    *PerfSide `json:"against,omitempty"`
	// Wins counts the pairs in which the working tree's value was better
	// in the declared direction (ties count for neither side).
	Wins int `json:"wins"`
	// Change is the working tree's median relative to the revision's.
	Change float64 `json:"change"`
	// BeyondIQR is whether the medians differ by more than the width of
	// the revision's middle half.
	BeyondIQR bool `json:"beyond_iqr"`
}

// PerfEntry is one workload and seed's A/B.
type PerfEntry struct {
	perfSpec
	Correct   bool `json:"correct"`
	Failed    int  `json:"failed"`
	RevFailed int  `json:"against_failed"`
	// RevCorrect is whether every run of the revision reported correct.
	RevCorrect bool                  `json:"against_correct"`
	Metrics    map[string]PerfMetric `json:"metrics"`
}

// perfAB runs every spec's pairs, alternating which side runs first, and
// appends the comparisons to rep.Perfbench. revRoot is the revision's
// checkout, or "" to run the working tree alone.
func perfAB(ctx context.Context, rep *Report, revRoot string, specs []perfSpec) error {
	if len(specs) == 0 {
		return nil
	}
	seconds, defs, err := readBenchmark("BENCHMARK.json")
	if err != nil {
		return err
	}
	rep.Seconds = seconds
	for _, sp := range specs {
		sp := sp
		runTree := func() (perfRun, error) { return runPerfbench(ctx, ".", sp, seconds) }
		var runRev func() (perfRun, error)
		if revRoot != "" {
			runRev = func() (perfRun, error) { return runPerfbench(ctx, revRoot, sp, seconds) }
		}
		tree, rev, err := alternate(sp.Pairs, runTree, runRev)
		if err != nil {
			return fmt.Errorf("perfbench %s seed %d: %w", sp.Workload, sp.Seed, err)
		}
		e := comparePerf(sp, tree, rev, defs)
		rep.Perfbench = append(rep.Perfbench, e)
		printPerf(e)
	}
	return nil
}

// comparePerf summarizes both sides' runs of every metric the working tree
// printed.
func comparePerf(sp perfSpec, tree, rev []perfRun, defs map[string]metricDef) PerfEntry {
	e := PerfEntry{perfSpec: sp, Correct: true, RevCorrect: len(rev) > 0, Metrics: map[string]PerfMetric{}}
	for _, r := range tree {
		e.Correct = e.Correct && r.Correct
		e.Failed += r.Failed
	}
	for _, r := range rev {
		e.RevCorrect = e.RevCorrect && r.Correct
		e.RevFailed += r.Failed
	}
	for name := range tree[0].Values {
		d := defs[name]
		m := PerfMetric{Better: d.Better, Bound: d.Bound, Tree: perfSide(tree, name)}
		if len(rev) > 0 {
			r := perfSide(rev, name)
			m.Rev = &r
			for i := 0; i < min(len(tree), len(rev)); i++ {
				t, b := m.Tree.Runs[i], r.Runs[i]
				if d.Better == "higher" && t > b || d.Better == "lower" && t < b {
					m.Wins++
				}
			}
			if r.Median != 0 {
				m.Change = m.Tree.Median/r.Median - 1
			}
			m.BeyondIQR = math.Abs(m.Tree.Median-r.Median) > r.Q3-r.Q1
		}
		e.Metrics[name] = m
	}
	return e
}

// perfSide gathers one metric's values over runs and their quartiles.
func perfSide(runs []perfRun, name string) PerfSide {
	s := PerfSide{}
	for _, r := range runs {
		s.Runs = append(s.Runs, r.Values[name])
		if n, ok := r.Samples[name]; ok {
			s.Samples = append(s.Samples, n)
		}
	}
	sorted := slices.Clone(s.Runs)
	slices.Sort(sorted)
	s.Q1, s.Median, s.Q3 = quantile(sorted, 0.25), quantile(sorted, 0.5), quantile(sorted, 0.75)
	return s
}

// quantile interpolates linearly between the order statistics of sorted
// (the default of R and NumPy), so the quartiles of ten runs lie a quarter
// of the way between the third and fourth runs and between the seventh and
// eighth.
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func printPerf(e PerfEntry) {
	var names []string
	for n := range e.Metrics {
		names = append(names, n)
	}
	slices.Sort(names)
	fmt.Printf("perfbench %s seed %d trace=%v, %d pairs: correct %v (against %v), failed %d (against %d)\n",
		e.Workload, e.Seed, e.Trace, e.Pairs, e.Correct, e.RevCorrect, e.Failed, e.RevFailed)
	for _, n := range names {
		m := e.Metrics[n]
		if m.Tree.Q3 == 0 && (m.Rev == nil || m.Rev.Q3 == 0) {
			continue // a layer this workload does not exercise
		}
		line := fmt.Sprintf("  %-36s %12.6g [%.6g, %.6g]", n, m.Tree.Median, m.Tree.Q1, m.Tree.Q3)
		if m.Rev != nil {
			line += fmt.Sprintf("  | against %12.6g [%.6g, %.6g], %+.1f%%, won %d/%d",
				m.Rev.Median, m.Rev.Q1, m.Rev.Q3, 100*m.Change, m.Wins, min(len(m.Tree.Runs), len(m.Rev.Runs)))
		}
		fmt.Println(line)
	}
}
