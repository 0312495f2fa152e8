// Command benchreport runs the repository's interval-kernel benchmark suite
// and emits a machine-readable JSON report — the perf trajectory artifact
// (`make bench` → BENCH_PR<n>.json) that lets successive PRs record
// before/after numbers in a comparable format.
//
// Each suite package's test binary is built once and each benchmark is run
// -count times; the report keeps the minimum and the median ns/op. On
// machines with frequency scaling or noisy neighbours the minimum is the
// least-contended estimate, and the suite exists to compare builds, not to
// model steady-state throughput.
//
// With -against REV the same binaries are also built from a temporary git
// worktree of REV, and the two builds run alternately, pair by pair (which
// side runs first alternates too), so drift on a shared host lands on both
// sides alike. The report then carries REV's minimum and median beside the
// working tree's, and how many pairs the working tree won.
//
// -perfbench runs the repository's end-to-end benchmark the same way:
// each side through its own perfbench/run.sh for BENCHMARK.json's
// run_seconds, pairs alternating which side runs first, per workload and
// seed. For every
// metric the report keeps each side's runs, median and quartiles (the
// middle half of the runs), the pairs won in the direction BENCHMARK.json
// declares, and whether every run was correct. -count 0 skips the
// microbenchmarks:
//
//	go run ./cmd/benchreport -against HEAD~1 -count 0 \
//		-perfbench resilient:1:10,serve:1:10,resilient:1:3:trace -out ab.json
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
)

// suite lists the benchmarks the report tracks: the cache microbenches, the
// address-stream generator, the end-to-end interval kernel, the fleet
// rounds, unmanaged and managed, one 512-member managed Farm.Run, one Mix-1
// calibration, one checkpoint encode and restore, and the Figure 15
// harness in Quick mode (14 runs over two workload keys as one farm batch).
var suite = []struct {
	key   string // JSON key
	bench string // exact benchmark name
	pkg   string // package path
}{
	{"cache_access", "BenchmarkCacheAccess", "."},
	{"cache_hit", "BenchmarkCacheHit", "./internal/cache"},
	{"stream_gen", "BenchmarkStreamGen", "./internal/workload"},
	{"interval_kernel", "BenchmarkIntervalKernel", "./internal/sim"},
	{"sim_step_8core", "BenchmarkSimStep8Sequential", "."},
	{"fleet_round_64", "BenchmarkFleetFarm64", "."},
	{"fleet_round_1024", "BenchmarkFleetFarm1024", "."},
	{"fleet_managed_64", "BenchmarkFleetFarmManaged64", "."},
	{"farm_run_512", "BenchmarkFarmRun512", "."},
	{"calibration_mix1", "BenchmarkCalibration", "."},
	{"checkpoint_encode", "BenchmarkCheckpointEncode", "./internal/sweepd"},
	{"checkpoint_restore", "BenchmarkCheckpointRestore", "./internal/sweepd"},
	{"fig15_quick", "BenchmarkFig15Scaling", "./internal/experiments"},
}

// fleets maps the fleet-round keys to their chip counts; the report derives
// per-chip and aggregate-throughput numbers from them against the scalar
// single-chip step (sim_step_8core: N independent sessions compose
// linearly, so the aggregate-scalar reference for N chips is N x that).
var fleets = map[string]int{
	"fleet_round_64":   64,
	"fleet_round_1024": 1024,
}

// Run is one benchmark run's result line.
type Run struct {
	NsPerOp     float64
	AllocsPerOp int64
	BytesPerOp  int64
}

// Side summarizes one build's runs of a benchmark.
type Side struct {
	// NsPerOp is the minimum over the runs, MedianNsPerOp the median.
	NsPerOp       float64 `json:"ns_per_op"`
	MedianNsPerOp float64 `json:"median_ns_per_op"`
	AllocsPerOp   int64   `json:"allocs_per_op"`
	BytesPerOp    int64   `json:"bytes_per_op"`
}

// Entry is one benchmark's measurement on the working tree and, with
// -against, on the named revision.
type Entry struct {
	Side
	// Against is the revision's side; absent without -against or when
	// the revision does not have the benchmark.
	Against *Side `json:"against,omitempty"`
	// Wins counts the pairs (run i of each side) in which the working
	// tree was faster, out of Pairs.
	Wins  int `json:"wins,omitempty"`
	Pairs int `json:"pairs,omitempty"`
	// Speedup is the revision's median over the working tree's.
	Speedup float64 `json:"speedup,omitempty"`
}

// FleetEntry is one fleet benchmark's derived throughput measurement.
type FleetEntry struct {
	Chips int `json:"chips"`
	// RoundNsPerOp is one lockstep round of the whole fleet.
	RoundNsPerOp float64 `json:"round_ns_per_op"`
	// PerChipNsPerStep is the amortized per-chip interval cost.
	PerChipNsPerStep float64 `json:"per_chip_ns_per_step"`
	// ChipStepsPerSec is the fleet's aggregate throughput.
	ChipStepsPerSec float64 `json:"chips_per_sec"`
	// ScalarChipNsPerStep is the single-chip scalar step (sim_step_8core);
	// AggregateSpeedup is (Chips x scalar) / round — the farm's advantage
	// over running the same fleet as independent scalar sessions.
	ScalarChipNsPerStep float64 `json:"scalar_chip_ns_per_step,omitempty"`
	AggregateSpeedup    float64 `json:"aggregate_speedup,omitempty"`
}

// Report is the emitted JSON document.
type Report struct {
	GoVersion string                `json:"go_version"`
	GOARCH    string                `json:"goarch"`
	Count     int                   `json:"count"`
	Benchtime string                `json:"benchtime"`
	Against   string                `json:"against,omitempty"`
	Note      string                `json:"note,omitempty"`
	Results   map[string]Entry      `json:"results"`
	Fleet     map[string]FleetEntry `json:"fleet,omitempty"`
	Seconds   float64               `json:"perfbench_seconds,omitempty"`
	Perfbench []PerfEntry           `json:"perfbench,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH.json", "output JSON path")
	count := flag.Int("count", 3, "runs per benchmark and build (minimum and median ns/op kept); 0 skips the microbenchmarks")
	benchtime := flag.String("benchtime", "1s", "go test -benchtime value")
	against := flag.String("against", "", "git revision to build from a temporary worktree and run alternately with the working tree")
	note := flag.String("note", "", "free-form provenance note stored in the report")
	perf := flag.String("perfbench", "", "perfbench A/Bs to run: comma-separated workload:seed:pairs, :trace appended for a traced run")
	flag.Parse()
	specs, err := parsePerfSpecs(*perf)
	if err != nil {
		fatal(err)
	}
	if *count < 0 || *count == 0 && len(specs) == 0 {
		fatal(fmt.Errorf("-count must be at least 1 without -perfbench, got %d", *count))
	}
	rep := Report{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Count:     *count,
		Benchtime: *benchtime,
		Note:      *note,
		Results:   map[string]Entry{},
	}
	// An interrupt kills the running benchmark and still removes the
	// temporary worktree and binaries on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err = run(ctx, &rep, *against, specs)
	stop()
	if err != nil {
		fatal(err)
	}
	deriveFleet(&rep)
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", *out)
}

// run checks the revision named by against, if any, out into a temporary
// worktree, then runs the microbenchmarks (unless rep.Count is 0) and the
// perfbench A/Bs on both sides.
func run(ctx context.Context, rep *Report, against string, specs []perfSpec) error {
	revRoot := ""
	if against != "" {
		hash, err := gitOutput("rev-parse", "--short", against+"^{commit}")
		if err != nil {
			return err
		}
		rep.Against = against + " (" + hash + ")"
		dir, remove, err := worktree(hash)
		if err != nil {
			return err
		}
		defer remove()
		revRoot = dir
	}
	if rep.Count > 0 {
		if err := measure(ctx, rep, revRoot, against); err != nil {
			return err
		}
	}
	return perfAB(ctx, rep, revRoot, specs)
}

// measure builds the suite in the working tree and, when revRoot is a
// revision's checkout, there too, then runs every benchmark rep.Count
// times per build into rep.Results.
func measure(ctx context.Context, rep *Report, revRoot, against string) error {
	bins, err := os.MkdirTemp("", "benchreport-bin-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(bins)
	cur, err := buildSuite(ctx, ".", filepath.Join(bins, "tree"))
	if err != nil {
		return err
	}
	var base map[string]testBin
	if revRoot != "" {
		if base, err = buildSuite(ctx, revRoot, filepath.Join(bins, "against")); err != nil {
			return err
		}
	}
	for _, b := range suite {
		runCur := func() (Run, error) { return cur[b.pkg].run(ctx, b.bench, rep.Benchtime) }
		var runBase func() (Run, error)
		if bin := base[b.pkg]; bin.has(b.bench) {
			runBase = func() (Run, error) { return bin.run(ctx, b.bench, rep.Benchtime) }
		}
		curRuns, baseRuns, err := alternate(rep.Count, runCur, runBase)
		if err != nil {
			return fmt.Errorf("%s: %w", b.bench, err)
		}
		e := compare(curRuns, baseRuns)
		rep.Results[b.key] = e
		line := fmt.Sprintf("%-18s %12.0f ns/op min %12.0f median  %d allocs/op", b.key, e.NsPerOp, e.MedianNsPerOp, e.AllocsPerOp)
		if e.Against != nil {
			line += fmt.Sprintf("  | against %12.0f min %12.0f median, %.3fx, won %d/%d",
				e.Against.NsPerOp, e.Against.MedianNsPerOp, e.Speedup, e.Wins, e.Pairs)
		} else if against != "" {
			line += "  | absent at " + against
		}
		fmt.Println(line)
	}
	return nil
}

// testBin is a suite package's test binary and the package directory it
// runs in, as go test would run it.
type testBin struct{ path, dir string }

// buildSuite compiles the test binary of every suite package in the tree
// at dir into binDir and returns them by package path. A package that does
// not build there (a revision predating it) is left out; a failure in the
// working tree is an error.
func buildSuite(ctx context.Context, dir, binDir string) (map[string]testBin, error) {
	bins := map[string]testBin{}
	for _, b := range suite {
		if _, done := bins[b.pkg]; done {
			continue
		}
		bin, err := filepath.Abs(filepath.Join(binDir, strings.NewReplacer("/", "_", ".", "root").Replace(b.pkg)+".test"))
		if err != nil {
			return nil, err
		}
		cmd := exec.CommandContext(ctx, "go", "test", "-c", "-o", bin, b.pkg)
		cmd.Dir = dir
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			if dir == "." || ctx.Err() != nil {
				return nil, fmt.Errorf("building %s: %w", b.pkg, err)
			}
			fmt.Fprintf(os.Stderr, "benchreport: %s does not build at the revision; its benchmarks are reported without it\n", b.pkg)
			bins[b.pkg] = testBin{}
			continue
		}
		bins[b.pkg] = testBin{path: bin, dir: filepath.Join(dir, b.pkg)}
	}
	return bins, nil
}

// worktree checks rev out into a temporary detached git worktree and
// returns its directory and the function that removes it.
func worktree(rev string) (string, func(), error) {
	dir, err := os.MkdirTemp("", "benchreport-rev-")
	if err != nil {
		return "", nil, err
	}
	remove := func() {
		exec.Command("git", "worktree", "remove", "--force", dir).Run()
		os.RemoveAll(dir)
		exec.Command("git", "worktree", "prune").Run()
	}
	if _, err := gitOutput("worktree", "add", "--detach", dir, rev); err != nil {
		remove()
		return "", nil, err
	}
	return dir, remove, nil
}

func gitOutput(args ...string) (string, error) {
	out, err := exec.Command("git", args...).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, bytes.TrimSpace(out))
	}
	return strings.TrimSpace(string(out)), nil
}

// has reports whether the binary defines the benchmark.
func (t testBin) has(bench string) bool {
	if t.path == "" {
		return false
	}
	out, err := exec.Command(t.path, "-test.list", "^"+bench+"$").Output()
	return err == nil && strings.TrimSpace(string(out)) == bench
}

// run runs one benchmark once and parses its result line.
func (t testBin) run(ctx context.Context, bench, benchtime string) (Run, error) {
	cmd := exec.CommandContext(ctx, t.path, "-test.run", "^$", "-test.bench", "^"+bench+"$",
		"-test.benchtime", benchtime, "-test.benchmem")
	cmd.Dir = t.dir
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return Run{}, err
	}
	for _, line := range strings.Split(string(outb), "\n") {
		if r, ok := parseBenchLine(line); ok {
			return r, nil
		}
	}
	return Run{}, fmt.Errorf("no benchmark output parsed")
}

// alternate makes count pairs of runs, one of each side per pair, with the
// side that runs first alternating between pairs. base may be nil (no
// revision, or one without the benchmark): then only cur runs.
func alternate[R any](count int, cur, base func() (R, error)) (curRuns, baseRuns []R, err error) {
	sides := []struct {
		run  func() (R, error)
		runs *[]R
	}{{cur, &curRuns}, {base, &baseRuns}}
	for i := 0; i < count; i++ {
		for j := range sides {
			s := sides[(i+j)%2]
			if s.run == nil {
				continue
			}
			r, err := s.run()
			if err != nil {
				return nil, nil, err
			}
			*s.runs = append(*s.runs, r)
		}
	}
	return curRuns, baseRuns, nil
}

// summarize keeps the minimum and median ns/op of runs, with the alloc
// counters of the fastest run (they do not vary between runs).
func summarize(runs []Run) Side {
	ns := make([]float64, len(runs))
	best := runs[0]
	for i, r := range runs {
		ns[i] = r.NsPerOp
		if r.NsPerOp < best.NsPerOp {
			best = r
		}
	}
	slices.Sort(ns)
	return Side{NsPerOp: best.NsPerOp, MedianNsPerOp: quantile(ns, 0.5), AllocsPerOp: best.AllocsPerOp, BytesPerOp: best.BytesPerOp}
}

// compare summarizes both sides and counts the pairs the working tree won
// (strictly faster; ties count for neither side).
func compare(cur, base []Run) Entry {
	e := Entry{Side: summarize(cur)}
	if len(base) == 0 {
		return e
	}
	b := summarize(base)
	e.Against = &b
	e.Pairs = min(len(cur), len(base))
	for i := 0; i < e.Pairs; i++ {
		if cur[i].NsPerOp < base[i].NsPerOp {
			e.Wins++
		}
	}
	e.Speedup = b.MedianNsPerOp / e.MedianNsPerOp
	return e
}

// deriveFleet folds the fleet-round measurements into per-chip and
// aggregate-throughput entries, with the speedup over N independent scalar
// sessions when the scalar step is in the report.
func deriveFleet(rep *Report) {
	scalar := rep.Results["sim_step_8core"].NsPerOp
	for key, chips := range fleets {
		e, ok := rep.Results[key]
		if !ok {
			continue
		}
		perChip := e.NsPerOp / float64(chips)
		fe := FleetEntry{
			Chips:            chips,
			RoundNsPerOp:     e.NsPerOp,
			PerChipNsPerStep: perChip,
			ChipStepsPerSec:  1e9 / perChip,
		}
		if scalar > 0 {
			fe.ScalarChipNsPerStep = scalar
			fe.AggregateSpeedup = scalar / perChip
		}
		if rep.Fleet == nil {
			rep.Fleet = map[string]FleetEntry{}
		}
		rep.Fleet[key] = fe
		fmt.Printf("%-16s %d chips: %.0f chips/sec, %.0f ns/chip-step, %.1fx aggregate vs scalar\n",
			key, chips, fe.ChipStepsPerSec, perChip, fe.AggregateSpeedup)
	}
}

// parseBenchLine reads one `go test -bench` result line: the benchmark
// name, the iteration count, then value-unit pairs. b.ReportMetric units
// print between ns/op and the -benchmem pair, so every field is found by
// its unit, wherever it sits. ok is false for any other line.
func parseBenchLine(line string) (r Run, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return Run{}, false
	}
	if _, err := strconv.Atoi(f[1]); err != nil {
		return Run{}, false
	}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Run{}, false
		}
		switch f[i+1] {
		case "ns/op":
			r.NsPerOp, ok = v, true
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		}
	}
	return r, ok
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreport:", err)
	os.Exit(1)
}
