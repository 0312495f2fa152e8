// Command cpmsim regenerates the paper's tables and figures on the
// simulated CMP.
//
// Usage:
//
//	cpmsim list                 # list every reproducible artefact
//	cpmsim run fig11 fig12      # run specific experiments
//	cpmsim run all              # run everything (Tables I-III, Figures 5-19)
//	cpmsim tables               # shorthand for the three tables
//	cpmsim scenario cpm-default # replay a canonical golden scenario
//	cpmsim checkpoint cpm-default        # snapshot a scenario mid-run
//	cpmsim -resume f.ckpt scenario NAME  # continue it bit-identically
//
// Flags (a flag given to a command that does not read it is refused):
//
//	-quick        (run, tables) shortened horizons (same shapes, faster)
//	-seed N       experiment seed (default 1, must be non-zero)
//	-check        (run, tables) fail an experiment on any violation of the
//	              invariant suite every run carries (internal/check);
//	              scenarios always fail on a violation
//	-csv DIR      (run, tables) also write every series as CSV files into DIR
//	-workers N    (run, tables) run experiments concurrently (0 =
//	              GOMAXPROCS); reports are buffered per experiment and
//	              printed in request order
//	-metrics F    export run telemetry to F after the run ("-" = stdout,
//	              .json = JSON, anything else Prometheus text format)
//	-pprof ADDR   serve net/http/pprof on ADDR for the life of the process
//	-trace F      write a runtime/trace capture to F
//	-resume F     (scenario) restore the run from checkpoint F and finish it
//	-o F          (checkpoint) output path (default <scenario>.ckpt)
//	-at N         (checkpoint) snapshot after N intervals (default: end of
//	              warmup)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"github.com/cpm-sim/cpm/internal/check"
	"github.com/cpm-sim/cpm/internal/diag"
	"github.com/cpm-sim/cpm/internal/engine"
	"github.com/cpm-sim/cpm/internal/experiments"
	"github.com/cpm-sim/cpm/internal/sweepd"
	"github.com/cpm-sim/cpm/internal/trace"
)

// cliConfig is the parsed, validated command line.
type cliConfig struct {
	opts    experiments.Options
	csvDir  string
	workers int
	cmd     string
	ids     []string
	diag    *diag.Flags
	resume  string // scenario: checkpoint file to restore before running
	ckptOut string // checkpoint: output path
	ckptAt  int    // checkpoint: intervals to run before snapshotting
}

// parseCLI parses and validates argv (without the program name). It is the
// testable core of main: every reject path returns an error instead of
// exiting.
func parseCLI(argv []string, stderr io.Writer) (cliConfig, error) {
	fs := flag.NewFlagSet("cpmsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	quick := fs.Bool("quick", false, "run, tables: shortened horizons")
	seed := fs.Uint64("seed", 1, "experiment seed (non-zero)")
	checked := fs.Bool("check", false, "run, tables: fail an experiment on any invariant violation (every run carries the invariant suite)")
	csvDir := fs.String("csv", "", "run, tables: directory to write CSV series into")
	workers := fs.Int("workers", 1, "run, tables: concurrent experiments (0 = GOMAXPROCS)")
	resume := fs.String("resume", "", "scenario: checkpoint file to restore before running")
	ckptOut := fs.String("o", "", "checkpoint: output path (default <scenario>.ckpt)")
	ckptAt := fs.Int("at", 0, "checkpoint: intervals to run before snapshotting (default: end of warmup)")
	dflags := diag.AddFlags(fs)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: cpmsim [flags] list | tables | run <id>...|all | scenario <name>...|all | checkpoint <name>\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return cliConfig{}, err
	}
	if *seed == 0 {
		return cliConfig{}, fmt.Errorf("cpmsim: -seed must be non-zero (0 is the unseeded sentinel)")
	}
	if *workers < 0 {
		return cliConfig{}, fmt.Errorf("cpmsim: -workers must be >= 0, got %d", *workers)
	}
	args := fs.Args()
	if len(args) == 0 {
		fs.Usage()
		return cliConfig{}, fmt.Errorf("cpmsim: need a command")
	}
	c := cliConfig{
		opts:    experiments.Options{Quick: *quick, Seed: *seed, Check: *checked},
		csvDir:  *csvDir,
		workers: *workers,
		cmd:     args[0],
		diag:    dflags,
		resume:  *resume,
		ckptOut: *ckptOut,
		ckptAt:  *ckptAt,
	}
	switch args[0] {
	case "list":
	case "tables":
		c.ids = []string{"table1", "table2", "table3"}
	case "run":
		c.ids = args[1:]
		if len(c.ids) == 0 {
			return cliConfig{}, fmt.Errorf("cpmsim run: need experiment IDs or 'all'")
		}
		if len(c.ids) == 1 && c.ids[0] == "all" {
			c.ids = nil
			for _, d := range experiments.All() {
				c.ids = append(c.ids, d.ID)
			}
		}
	case "scenario":
		c.ids = args[1:]
		if len(c.ids) == 0 {
			return cliConfig{}, fmt.Errorf("cpmsim scenario: need scenario names or 'all' (see check.Canonical)")
		}
		if len(c.ids) == 1 && c.ids[0] == "all" {
			c.ids = nil
			for _, sc := range check.Canonical() {
				c.ids = append(c.ids, sc.Name)
			}
		} else {
			for _, name := range c.ids {
				if _, err := scenarioByName(name); err != nil {
					return cliConfig{}, err
				}
			}
		}
		if c.resume != "" && len(c.ids) != 1 {
			return cliConfig{}, fmt.Errorf("cpmsim scenario: -resume takes exactly one scenario name")
		}
	case "checkpoint":
		c.ids = args[1:]
		if len(c.ids) != 1 {
			return cliConfig{}, fmt.Errorf("cpmsim checkpoint: need exactly one scenario name (see check.Canonical)")
		}
		if _, err := scenarioByName(c.ids[0]); err != nil {
			return cliConfig{}, err
		}
		if c.ckptAt < 0 {
			return cliConfig{}, fmt.Errorf("cpmsim checkpoint: -at must be >= 0, got %d", c.ckptAt)
		}
		if c.ckptOut == "" {
			c.ckptOut = c.ids[0] + ".ckpt"
		}
	default:
		fs.Usage()
		return cliConfig{}, fmt.Errorf("cpmsim: unknown command %q", args[0])
	}
	if err := strayFlag(fs, c.cmd); err != nil {
		return cliConfig{}, err
	}
	return c, nil
}

// readers maps each command-specific flag to the commands that read it.
var readers = map[string][]string{
	"quick": {"run", "tables"}, "csv": {"run", "tables"},
	"workers": {"run", "tables"}, "check": {"run", "tables"},
	"resume": {"scenario"}, "o": {"checkpoint"}, "at": {"checkpoint"},
}

// strayFlag refuses a flag that cmd does not read instead of dropping it.
// Whether a flag was set is read from the flag set, not its value: -at 0
// means "default" and still counts as set.
func strayFlag(fs *flag.FlagSet, cmd string) error {
	var stray error
	fs.Visit(func(f *flag.Flag) {
		cmds, ok := readers[f.Name]
		if stray == nil && ok && !slices.Contains(cmds, cmd) {
			stray = fmt.Errorf("cpmsim %s: -%s applies only to %s", cmd, f.Name, strings.Join(cmds, " and "))
		}
	})
	return stray
}

func main() {
	c, err := parseCLI(os.Args[1:], os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	stopTrace, err := c.diag.Start(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	defer stopTrace()
	c.opts.Metrics = c.diag.Registry()
	switch c.cmd {
	case "list":
		listExperiments()
		return
	case "scenario":
		if err := runScenarios(c, os.Stdout); err != nil {
			stopTrace()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	case "checkpoint":
		if err := runCheckpoint(c, os.Stdout); err != nil {
			stopTrace()
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		if !runIDs(c.ids, c.opts, c.csvDir, c.workers) {
			stopTrace()
			os.Exit(1)
		}
	}
	if err := c.diag.WriteMetrics(c.opts.Metrics, os.Stdout); err != nil {
		stopTrace()
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// scenarioByName resolves a canonical golden scenario.
func scenarioByName(name string) (check.Scenario, error) {
	sc, err := check.ScenarioByName(name)
	if err != nil {
		return check.Scenario{}, fmt.Errorf("cpmsim scenario: %w", err)
	}
	return sc, nil
}

// runScenarios replays canonical golden scenarios under the invariant
// suite, attaching the telemetry observer when -metrics is given — the
// scenario-level entry point CI uses to capture the cpm-default telemetry
// artifact.
func runScenarios(c cliConfig, out io.Writer) error {
	for _, name := range c.ids {
		sc, err := scenarioByName(name)
		if err != nil {
			return err
		}
		sc.Metrics = c.opts.Metrics
		sess, suite, err := sc.Build(c.opts.Seed)
		if err != nil {
			return fmt.Errorf("scenario %s: %w", name, err)
		}
		resumed := ""
		if c.resume != "" {
			if err := restoreSession(sess, c.resume, name, c.opts.Seed); err != nil {
				return err
			}
			resumed = " (resumed)"
		}
		sum := sess.Run()
		if err := suite.Err(); err != nil {
			return fmt.Errorf("scenario %s violated invariants:\n%w", name, err)
		}
		fmt.Fprintf(out, "scenario %-16s mean power %7.2f W, %6.3f BIPS, peak %5.1f C%s\n",
			name, sum.MeanPowerW, sum.MeanBIPS, sum.MaxTempC, resumed)
	}
	return nil
}

// checkpointPoint names a cpmsim session checkpoint: a sweepd point whose
// name binds the file to its (scenario, seed), so a resume into the wrong
// stack fails at the header, before any state is decoded.
func checkpointPoint(name string, seed uint64) sweepd.Point {
	return sweepd.Point{Name: fmt.Sprintf("%s/seed=%d", name, seed)}
}

// defaultCheckpointAt resolves the checkpoint boundary when -at is not
// given: the end of warmup, or — for runs with no warm-up intervals, where
// that default would be 0 and fail the range check even though the user
// passed nothing — the run's midpoint.
func defaultCheckpointAt(warmIntervals, totalIntervals int) int {
	if warmIntervals > 0 {
		return warmIntervals
	}
	return totalIntervals / 2
}

// runCheckpoint builds a canonical scenario, advances it -at intervals
// (defaulting to the end of warmup, or the midpoint of a zero-warmup run)
// and writes the full-state snapshot as a sweepd checkpoint, whose body
// digest makes any changed byte a restore error.
func runCheckpoint(c cliConfig, out io.Writer) error {
	name := c.ids[0]
	sc, err := scenarioByName(name)
	if err != nil {
		return err
	}
	sess, _, err := sc.Build(c.opts.Seed)
	if err != nil {
		return fmt.Errorf("scenario %s: %w", name, err)
	}
	info := sess.Info()
	total := info.WarmIntervals + info.MeasureIntervals
	at := c.ckptAt
	if at == 0 {
		at = defaultCheckpointAt(info.WarmIntervals, total)
	}
	if at <= 0 || at >= total {
		return fmt.Errorf("cpmsim checkpoint: -at %d outside the run's (0, %d) interval range", at, total)
	}
	if got := sess.RunIntervals(at); got != at {
		return fmt.Errorf("cpmsim checkpoint: ran %d of %d intervals", got, at)
	}
	b, err := sweepd.EncodeCheckpoint(checkpointPoint(name, c.opts.Seed), &sweepd.Instance{Session: sess})
	if err != nil {
		return err
	}
	if err := os.WriteFile(c.ckptOut, b, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "checkpoint %s at interval %d/%d -> %s (%d bytes)\n", name, at, total, c.ckptOut, len(b))
	return nil
}

// restoreSession loads a checkpoint file into a freshly built session.
// sweepd.RestoreCheckpoint validates it against the scenario and seed being
// resumed and against its body digest.
func restoreSession(sess *engine.Session, path, name string, seed uint64) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if _, err := sweepd.RestoreCheckpoint(checkpointPoint(name, seed), &sweepd.Instance{Session: sess}, b); err != nil {
		return fmt.Errorf("cpmsim: resuming from %s: %w", path, err)
	}
	return nil
}

func listExperiments() {
	var rows [][]string
	for _, d := range experiments.All() {
		rows = append(rows, []string{d.ID, d.Title})
	}
	fmt.Print(trace.Table([]string{"ID", "Reproduces"}, rows))
}

// runReport is one experiment's buffered output, assembled off the main
// goroutine so pooled runs can't interleave reports.
type runReport struct {
	text string
	errs []string
}

func runIDs(ids []string, opts experiments.Options, csvDir string, workers int) bool {
	reports, _ := engine.Map(engine.Pool{Workers: workers}, len(ids), func(i int) (runReport, error) {
		r := runOne(ids[i], opts, csvDir)
		if len(r.errs) == 0 {
			fmt.Fprintf(os.Stderr, "done %s\n", ids[i])
		}
		return r, nil
	})
	ok := true
	for _, r := range reports {
		os.Stdout.WriteString(r.text)
		for _, e := range r.errs {
			fmt.Fprintln(os.Stderr, e)
			ok = false
		}
	}
	return ok
}

func runOne(id string, opts experiments.Options, csvDir string) (rep runReport) {
	var b strings.Builder
	defer func() { rep.text = b.String() }()
	d, err := experiments.ByID(id)
	if err != nil {
		rep.errs = append(rep.errs, err.Error())
		return rep
	}
	fmt.Fprintf(&b, "=== %s — %s ===\n", d.ID, d.Title)
	fmt.Fprintf(&b, "Paper: %s\n\n", d.Paper)
	r, err := d.Run(opts)
	if err != nil {
		rep.errs = append(rep.errs, fmt.Sprintf("%s: %v", id, err))
		return rep
	}
	fmt.Fprintln(&b, r.Text)
	if len(r.Metrics) > 0 {
		var rows [][]string
		for _, k := range trace.SortedKeys(r.Metrics) {
			rows = append(rows, []string{k, fmt.Sprintf("%.4g", r.Metrics[k])})
		}
		fmt.Fprintln(&b, trace.Table([]string{"Metric", "Value"}, rows))
	}
	if csvDir != "" {
		if err := writeCSVs(csvDir, r); err != nil {
			rep.errs = append(rep.errs, fmt.Sprintf("%s: writing CSV: %v", id, err))
		}
	}
	return rep
}

func writeCSVs(dir string, r experiments.Result) error {
	if len(r.Sets) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range trace.SortedKeys(r.Sets) {
		clean := strings.ReplaceAll(name, string(filepath.Separator), "-")
		f, err := os.Create(filepath.Join(dir, clean+".csv"))
		if err != nil {
			return err
		}
		if err := r.Sets[name].WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
