// Command cpmtrace records and replays workload interval traces.
//
// A trace captures each core's frequency-independent interval behaviour
// (phase-scaled CPI, memory intensity, measured miss fractions), so a single
// recording can be replayed under any controller or DVFS trajectory —
// removing workload variance from comparisons and skipping the cache
// simulation.
//
// Usage:
//
//	cpmtrace record -mix mix1 -intervals 800 -o mix1.trace
//	cpmtrace replay -mix mix1 -i mix1.trace -budget 0.8
//	cpmtrace info   -i mix1.trace
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/sim"
	"github.com/cpm-sim/cpm/internal/trace"
	"github.com/cpm-sim/cpm/internal/uarch"
	"github.com/cpm-sim/cpm/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "record":
		err = record(args)
	case "replay":
		err = replay(args)
	case "info":
		err = info(args)
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cpmtrace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  cpmtrace record -mix NAME -intervals N -o FILE [-seed N]
  cpmtrace replay -mix NAME -i FILE -budget FRAC [-epochs N]
  cpmtrace info   -i FILE`)
}

// recordArgs is the parsed, validated record command line.
type recordArgs struct {
	mix       workload.Mix
	intervals int
	out       string
	seed      uint64
}

// parseRecord parses and validates the record flags; like parseReplay,
// every reject path is an error, so the validation is testable.
func parseRecord(args []string, stderr io.Writer) (recordArgs, error) {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mixName := fs.String("mix", "mix1", "application mix")
	intervals := fs.Int("intervals", 800, "intervals to record (2.5 ms each)")
	out := fs.String("o", "", "output file")
	seed := fs.Uint64("seed", 1, "workload seed")
	if err := fs.Parse(args); err != nil {
		return recordArgs{}, err
	}
	if *out == "" {
		return recordArgs{}, fmt.Errorf("record: -o is required")
	}
	if *intervals <= 0 {
		return recordArgs{}, fmt.Errorf("record: -intervals must be > 0, got %d", *intervals)
	}
	mix, err := workload.MixByName(*mixName)
	if err != nil {
		return recordArgs{}, err
	}
	return recordArgs{mix: mix, intervals: *intervals, out: *out, seed: *seed}, nil
}

// record samples the mix's workload and saves the trace. Records do not
// depend on the operating point, so no chip or controller runs.
func record(args []string) error {
	a, err := parseRecord(args, os.Stderr)
	if err != nil {
		return err
	}
	cfg := sim.DefaultConfig(a.mix)
	cfg.Seed = a.seed
	set, err := sim.RecordTraces(cfg, a.intervals)
	if err != nil {
		return err
	}
	f, err := os.Create(a.out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := uarch.SaveTraces(f, set); err != nil {
		return err
	}
	fmt.Printf("recorded %d intervals x %d cores of %s to %s\n", a.intervals, len(set.Records), a.mix.Name, a.out)
	return f.Close()
}

func load(path string) (uarch.TraceSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return uarch.TraceSet{}, err
	}
	defer f.Close()
	return uarch.LoadTraces(f)
}

// replayArgs is the parsed, validated replay command line.
type replayArgs struct {
	mix    workload.Mix
	in     string
	budget float64
	epochs int
}

// parseReplay parses and validates the replay flags. Every reject path is
// an error, not an exit, so the validation is testable.
func parseReplay(args []string, stderr io.Writer) (replayArgs, error) {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	mixName := fs.String("mix", "mix1", "application mix the trace was recorded from")
	in := fs.String("i", "", "trace file")
	budget := fs.Float64("budget", 0.8, "budget fraction of required power, in (0, 1]")
	epochs := fs.Int("epochs", 16, "measured GPM epochs")
	if err := fs.Parse(args); err != nil {
		return replayArgs{}, err
	}
	if *in == "" {
		return replayArgs{}, fmt.Errorf("replay: -i is required")
	}
	if !(*budget > 0 && *budget <= 1) { // also rejects NaN
		return replayArgs{}, fmt.Errorf("replay: -budget %v out of (0, 1]", *budget)
	}
	if *epochs <= 0 {
		return replayArgs{}, fmt.Errorf("replay: -epochs must be > 0, got %d", *epochs)
	}
	mix, err := workload.MixByName(*mixName)
	if err != nil {
		return replayArgs{}, err
	}
	return replayArgs{mix: mix, in: *in, budget: *budget, epochs: *epochs}, nil
}

// replay runs the CPM run spec over a replay chip: calibration comes from
// the sampled chip the trace was recorded from, the run's cores replay the
// recorded intervals.
func replay(args []string) error {
	a, err := parseReplay(args, os.Stderr)
	if err != nil {
		return err
	}
	set, err := load(a.in)
	if err != nil {
		return err
	}
	sc := check.Scenario{
		Name: "replay", Mix: func() workload.Mix { return a.mix },
		BudgetFrac: a.budget, WarmEpochs: 6, MeasureEpochs: a.epochs,
	}
	const seed = 1
	cmp, err := sim.NewReplay(sc.BuildConfig(seed), set)
	if err != nil {
		return err
	}
	rec := trace.NewRecorder("GPM epoch")
	s, _, err := sc.BuildOn(cmp, seed, rec)
	if err != nil {
		return err
	}
	sum := s.Run()
	fmt.Printf("replayed %s under CPM at %.1f W (%.0f%%): mean %.1f W, %.2f BIPS\n",
		a.in, s.Info().BudgetW, a.budget*100, sum.MeanPowerW, sum.MeanBIPS)
	fmt.Print(rec.Set().Chart(70, 12))
	return nil
}

func info(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	in := fs.String("i", "", "trace file")
	fs.Parse(args)
	if *in == "" {
		return fmt.Errorf("info: -i is required")
	}
	set, err := load(*in)
	if err != nil {
		return err
	}
	fmt.Printf("%d cores\n", len(set.Records))
	for id := 0; id < len(set.Records); id++ {
		recs, ok := set.Records[id]
		if !ok {
			continue
		}
		var memSum float64
		for _, r := range recs {
			memSum += r.MemRefs * r.PDataMem
		}
		fmt.Printf("  core %2d: %-8s %5d intervals, avg %.4f memory misses/instr\n",
			id, set.Benchmarks[id], len(recs), memSum/float64(len(recs)))
	}
	return nil
}
