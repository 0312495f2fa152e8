// Command perfbench is the repository's benchmark: it runs one workload
// in-process through the packages' public APIs, checks every output
// against the pinned golden digests and the invariant suites, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer ledger) as the
// last line of standard output:
//
//	bash perfbench/run.sh --workload resilient --seed 7 --seconds 30 --trace 0
//
// Workloads: fleet, resilient, serve (perfbench/DESIGN.md says why each
// exists and which layer each stresses). It must run from the repository
// root, where it reads internal/check/testdata/golden.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// setupChildren is how many extra processes repeat the workload's set-up,
// so setup_s is a median of three fresh set-ups (calibrations are cached
// per process, so an in-process repeat would not redo them).
const setupChildren = 2

// options are the command-line inputs.
type options struct {
	workload  string
	seed      uint64
	seconds   float64
	trace     bool
	setupOnly bool
}

func parseOptions(args []string) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: fleet, resilient or serve")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed (derived-seed points, budgets and request order)")
	fs.Float64Var(&o.seconds, "seconds", 10, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 prints the per-layer ledger instead of the end-to-end metrics")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "stop after set-up and print its duration")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if workloads[o.workload] == nil {
		return o, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	return o, nil
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"fleet":     runFleet,
	"resilient": runResilient,
	"serve":     runServe,
}

// workers is the pool, server-worker and client-connection count: the
// host's processors, at most two, so the load shape is the same on any
// machine with two or more.
var workers = min(runtime.NumCPU(), 2)

// run is the state of one benchmark invocation.
type run struct {
	opts  options
	start time.Time
	gate  *gate

	setup      time.Duration // process start to the first timed operation
	timedStart time.Time
	goStart    goSample

	attempted int
	checks    []error // benchmark-level correctness failures (span coverage)
	e2e       *metricSet
	layer     *metricSet
}

// setupComplete marks the end of set-up and reports whether the
// invocation should stop there (--setup-only).
func (r *run) setupComplete() bool {
	r.timedStart = time.Now()
	r.setup = r.timedStart.Sub(r.start)
	r.goStart = readGo()
	return r.opts.setupOnly
}

// settle returns freed heap to the operating system before a round, so
// every round starts from the memory state of the first one (a fresh
// process's, as each real sweep is). Without it a round's speed depends on
// whether the garbage collector and scavenger happened to leave the
// previous round's pages mapped.
func settle() {
	debug.FreeOSMemory()
}

// logRound reports a finished round on standard error.
func (r *run) logRound(i int, traced bool, wall time.Duration, chipIntervals int) {
	fmt.Fprintf(os.Stderr, "perfbench: %s round %d traced=%v: %.3fs, %.0f chip-intervals/s\n",
		r.opts.workload, i, traced, wall.Seconds(), float64(chipIntervals)/wall.Seconds())
}

// elapsed is the time since the timed phase began.
func (r *run) elapsed() float64 { return time.Since(r.timedStart).Seconds() }

// goSample is a reading of the runtime's allocation and GC counters.
type goSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readGo() goSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return goSample{val(0), val(1), val(2)}
}

// goLayer records the Go runtime's per-layer metrics over the timed phase.
func (r *run) goLayer(chipIntervals float64) {
	end := readGo()
	r.layer.set("go.alloc_bytes_per_chip_interval", "B", ratio(end.allocBytes-r.goStart.allocBytes, chipIntervals), int(chipIntervals))
	r.layer.set("go.gc_cpu_share", "ratio", ratio(end.gcCPU-r.goStart.gcCPU, end.totalCPU-r.goStart.totalCPU), 1)
}

// peakRSSMB is the process's peak resident set.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// childSetups runs the workload's set-up in fresh processes, one after
// another, and returns their durations.
func childSetups(o options) ([]time.Duration, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []time.Duration
	for i := 0; i < setupChildren; i++ {
		cmd := exec.Command(exe, "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10), "--setup-only")
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		d, err := time.ParseDuration(strings.TrimSpace(lastLine(b)))
		if err != nil {
			return nil, fmt.Errorf("set-up child printed %q: %w", lastLine(b), err)
		}
		out = append(out, d)
	}
	return out, nil
}

func lastLine(b []byte) string {
	var last string
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		if t := strings.TrimSpace(sc.Text()); t != "" {
			last = t
		}
	}
	return last
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	start := time.Now()
	o, err := parseOptions(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := benchmark(o, start); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchmark(o options, start time.Time) error {
	g, err := newGate()
	if err != nil {
		return err
	}
	r := &run{opts: o, start: start, gate: g, e2e: newMetricSet(), layer: newMetricSet()}
	if err := workloads[o.workload](r); err != nil {
		return err
	}
	if o.setupOnly {
		fmt.Println(r.setup)
		return nil
	}
	failed, firstErrs := g.failures()
	if firstErrs != nil {
		fmt.Fprintln(os.Stderr, "perfbench: failures:", firstErrs)
	}
	for _, err := range r.checks {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	res := result{Correct: failed == 0 && len(r.checks) == 0, Attempted: r.attempted, Failed: failed}
	if o.trace {
		if err := checkNames(r.layer, perLayer); err != nil {
			return err
		}
		r.layer.print(os.Stdout, o.workload+" per-layer ledger (traced run)")
		res.Metrics = r.layer.vals
	} else {
		r.e2e.set("peak_rss_mb", "MB", peakRSSMB(), 1)
		setups := []time.Duration{r.setup}
		children, err := childSetups(o)
		if err != nil {
			return err
		}
		setups = append(setups, children...)
		secs := make([]float64, len(setups))
		for i, d := range setups {
			secs[i] = d.Seconds()
		}
		r.e2e.set("setup_s", "s", median(secs), len(secs))
		if err := checkNames(r.e2e, endToEnd); err != nil {
			return err
		}
		r.e2e.print(os.Stdout, o.workload+" end-to-end metrics")
		res.Metrics = r.e2e.vals
	}
	if res.Attempted < 1 {
		return errors.New("no operation attempted")
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// checkNames insists a run printed exactly the metrics BENCHMARK.json
// declares for its mode, in the declared units.
func checkNames(m *metricSet, want []metricDef) error {
	if len(m.vals) != len(want) {
		return fmt.Errorf("printed %d metrics, BENCHMARK.json declares %d (%v)", len(m.vals), len(want), m.order)
	}
	for _, d := range want {
		v, ok := m.vals[d.name]
		if !ok {
			return fmt.Errorf("metric %s not measured", d.name)
		}
		if v.Unit != d.unit {
			return fmt.Errorf("metric %s printed in %s, declared in %s", d.name, v.Unit, d.unit)
		}
	}
	return nil
}

// zeroLayers declares every per-layer metric at 0 with no samples: a layer
// the workload's route does not exercise, or that no public boundary
// exposes on it, keeps that value (the ledger shows n=0).
func (r *run) zeroLayers() {
	for _, d := range perLayer {
		r.layer.set(d.name, d.unit, 0, 0)
	}
}

// endToEnd and perLayer mirror BENCHMARK.json: every run prints exactly
// the metrics of its mode, with these units.
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"chip_intervals_per_s", "1/s"}, {"peak_rss_mb", "MB"},
	{"sim_mean_bips", "BIPS"}, {"sim_track_err_pct", "%"},
	{"cold_p50_ms", "ms"}, {"cold_p90_ms", "ms"},
}

var perLayer = []metricDef{
	{"sim.sample.ns", "ns"}, {"sim.sample.share", "ratio"},
	{"cache.l1d_miss_rate", "ratio"}, {"cache.l2_miss_rate", "ratio"},
	{"sim.compute.ns", "ns"}, {"sim.compute.share", "ratio"}, {"sim.step_ns", "ns"},
	{"core.ns", "ns"}, {"core.share", "ratio"}, {"pic.invokes", "count"},
	{"pic.transitions_per_invoke", "ratio"}, {"gpm.epochs", "count"},
	{"gpm.performance-aware.provision_ns", "ns"}, {"gpm.thermal-aware.provision_ns", "ns"},
	{"gpm.variation-aware.provision_ns", "ns"}, {"gpm.mpc-gpm.provision_ns", "ns"},
	{"gpm.cache-aware.provision_ns", "ns"}, {"maxbips.plan_ns", "ns"},
	{"engine.ns", "ns"}, {"engine.share", "ratio"}, {"pool.idle_share", "ratio"},
	{"farm.round_ns", "ns"}, {"farm.chips_per_sampler", "count"},
	{"snapshot.encode_ns", "ns"}, {"snapshot.restore_ns", "ns"},
	{"snapshot.checkpoint_kb", "KiB"}, {"snapshot.share", "ratio"},
	{"sweepd.checkpoints", "count"}, {"sweepd.kills", "count"}, {"sweepd.reexec_ratio", "ratio"},
	{"core.calibrate_s", "s"}, {"core.calibrations", "count"},
	{"serve.handler_us", "us"}, {"serve.net_us", "us"}, {"serve.queue_ms", "ms"},
	{"serve.run_ms", "ms"}, {"serve.hit_ratio", "ratio"}, {"serve.coalesced", "count"},
	{"serve.rejected", "count"}, {"serve.hit_p50_ms", "ms"}, {"serve.hit_p99_ms", "ms"},
	{"serve.hit_req_per_s", "1/s"}, {"serve.cold_req_per_s", "1/s"},
	{"go.alloc_bytes_per_chip_interval", "B"}, {"go.gc_cpu_share", "ratio"},
	{"trace.overhead_pct", "%"}, {"trace.unattributed_pct", "%"},
}

// metricDef is a declared metric name and its unit.
type metricDef struct{ name, unit string }
