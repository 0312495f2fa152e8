// Command benchreport runs the repository's interval-kernel benchmark suite
// and emits a machine-readable JSON report — the perf trajectory artifact
// (`make bench` → BENCH_PR<n>.json) that lets successive PRs record
// before/after numbers in a comparable format.
//
// Each benchmark is run -count times and the minimum ns/op is kept: on
// machines with frequency scaling or noisy neighbours the minimum is the
// least-contended estimate, and the suite exists to compare builds, not to
// model steady-state throughput. Baseline numbers from an earlier build can
// be pinned with -baseline to compute speedups into the same report.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// suite lists the benchmarks the report tracks: the cache microbenches, the
// address-stream generator, the end-to-end interval kernel, the fleet
// rounds, unmanaged and managed, one 512-member managed Farm.Run and one
// Mix-1 calibration.
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
}

// fleets maps the fleet-round keys to their chip counts; the report derives
// per-chip and aggregate-throughput numbers from them against the scalar
// single-chip step (sim_step_8core: N independent sessions compose
// linearly, so the aggregate-scalar reference for N chips is N x that).
var fleets = map[string]int{
	"fleet_round_64":   64,
	"fleet_round_1024": 1024,
}

// Entry is one benchmark's measurement.
type Entry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// BaselineNsPerOp and Speedup are present when -baseline pinned a
	// reference number for this key.
	BaselineNsPerOp float64 `json:"baseline_ns_per_op,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
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
	Note      string                `json:"note,omitempty"`
	Results   map[string]Entry      `json:"results"`
	Fleet     map[string]FleetEntry `json:"fleet,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH.json", "output JSON path")
	count := flag.Int("count", 3, "runs per benchmark (minimum ns/op kept)")
	benchtime := flag.String("benchtime", "1s", "go test -benchtime value")
	baseline := flag.String("baseline", "", "comma-separated key=ns_per_op reference numbers (e.g. cache_access=24.5)")
	note := flag.String("note", "", "free-form provenance note stored in the report")
	flag.Parse()

	base, err := parseBaseline(*baseline)
	if err != nil {
		fatal(err)
	}
	rep := Report{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		Count:     *count,
		Benchtime: *benchtime,
		Note:      *note,
		Results:   map[string]Entry{},
	}
	for _, b := range suite {
		e, err := run(b.bench, b.pkg, *count, *benchtime)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", b.bench, err))
		}
		if ref, ok := base[b.key]; ok {
			e.BaselineNsPerOp = ref
			e.Speedup = ref / e.NsPerOp
		}
		rep.Results[b.key] = e
		fmt.Printf("%-16s %10.2f ns/op  %d allocs/op\n", b.key, e.NsPerOp, e.AllocsPerOp)
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

// run executes one benchmark count times and keeps the minimum ns/op (with
// its alloc counters, which do not vary between runs).
func run(bench, pkg string, count int, benchtime string) (Entry, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", "^"+bench+"$",
		"-benchtime", benchtime, "-count", strconv.Itoa(count), "-benchmem", pkg)
	cmd.Stderr = os.Stderr
	outb, err := cmd.Output()
	if err != nil {
		return Entry{}, err
	}
	best := Entry{}
	seen := false
	for _, line := range strings.Split(string(outb), "\n") {
		e, ok := parseBenchLine(line)
		if ok && (!seen || e.NsPerOp < best.NsPerOp) {
			best, seen = e, true
		}
	}
	if !seen {
		return Entry{}, fmt.Errorf("no benchmark output parsed")
	}
	return best, nil
}

// parseBenchLine reads one `go test -bench` result line: the benchmark
// name, the iteration count, then value-unit pairs. b.ReportMetric units
// print between ns/op and the -benchmem pair, so every field is found by
// its unit, wherever it sits. ok is false for any other line.
func parseBenchLine(line string) (e Entry, ok bool) {
	f := strings.Fields(line)
	if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
		return Entry{}, false
	}
	if _, err := strconv.Atoi(f[1]); err != nil {
		return Entry{}, false
	}
	for i := 2; i < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Entry{}, false
		}
		switch f[i+1] {
		case "ns/op":
			e.NsPerOp, ok = v, true
		case "B/op":
			e.BytesPerOp = int64(v)
		case "allocs/op":
			e.AllocsPerOp = int64(v)
		}
	}
	return e, ok
}

func parseBaseline(s string) (map[string]float64, error) {
	out := map[string]float64{}
	if s == "" {
		return out, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return nil, fmt.Errorf("benchreport: malformed baseline entry %q", kv)
		}
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, fmt.Errorf("benchreport: baseline %s: %w", k, err)
		}
		out[k] = f
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchreport:", err)
	os.Exit(1)
}
